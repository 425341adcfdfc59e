// docs_test.go is the documentation gate: relative markdown links must
// resolve, every internal package must carry a package comment, and every
// path and test name the reference docs cite must exist.
// CI runs these in its docs job; they also run with plain `go test`.
package vidperf

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// markdownFiles lists every tracked *.md in the repo (skipping
// generated/vendored trees; none exist today, but be explicit).
func markdownFiles(t *testing.T) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no markdown files found")
	}
	return out
}

var mdLink = regexp.MustCompile(`\]\(([^)#\s]+)(#[^)\s]*)?\)`)

// TestMarkdownLinksResolve: every relative link target in every *.md
// must exist on disk (external URLs are skipped — the gate must not
// depend on the network).
func TestMarkdownLinksResolve(t *testing.T) {
	for _, md := range markdownFiles(t) {
		body, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%s does not exist)", md, target, resolved)
			}
		}
	}
}

// TestInternalPackagesHaveComments: every package under internal/ (and
// every command under cmd/) must carry a package comment — the
// satellite doc-debt rule, ratcheted so new packages cannot ship bare.
func TestInternalPackagesHaveComments(t *testing.T) {
	for _, root := range []string{"internal", "cmd"} {
		dirs, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			if !d.IsDir() {
				continue
			}
			dir := filepath.Join(root, d.Name())
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Fatalf("%s: %v", dir, err)
			}
			for name, pkg := range pkgs {
				documented := false
				for _, f := range pkg.Files {
					if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
						documented = true
						break
					}
				}
				if !documented {
					t.Errorf("package %s (%s) has no package comment", name, dir)
				}
			}
		}
	}
}

var (
	codeSpan     = regexp.MustCompile("`([^`\n]+)`")
	repoPath     = regexp.MustCompile(`^(?:cmd|internal|examples)/\S*`)
	lineSuffix   = regexp.MustCompile(`:\d+$`)
	testName     = regexp.MustCompile(`^Test[A-Z0-9_]\w*$`)
	testFuncDecl = regexp.MustCompile(`(?m)^func (Test\w+)\(`)
)

// TestDocNamesResolve: every backticked cmd/, internal/ or examples/ path
// in the reference docs must exist (a `:line` suffix is stripped), and
// every backticked TestXxx must name a test function in some _test.go, so
// a deletion or rename cannot leave a doc row pointing at nothing.
// ROADMAP.md and CHANGES.md are history and stay out.
func TestDocNamesResolve(t *testing.T) {
	tests := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, build caches
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDecl.FindAllStringSubmatch(string(src), -1) {
			tests[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, md := range append([]string{"README.md", "ARCHITECTURE.md", "PAPER.md"}, docs...) {
		body, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range codeSpan.FindAllStringSubmatch(string(body), -1) {
			span := m[1]
			if p := repoPath.FindString(span); p != "" {
				p = lineSuffix.ReplaceAllString(p, "")
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s: `%s` names a path that does not exist", md, span)
				}
			} else if testName.MatchString(span) && !tests[span] {
				t.Errorf("%s: `%s` names no func %s( in any _test.go", md, span, span)
			}
		}
	}
}
