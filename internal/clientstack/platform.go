// Package clientstack models the two client-side execution paths the paper
// instruments: the download stack (player ← Flash ← browser ← OS), whose
// buffering inflates first-byte delay and fakes instantaneous throughput
// (§4.3), and the rendering path (demux → decode → render), which drops
// frames when the CPU cannot keep up (§4.4).
package clientstack

// OS is the client operating system family.
type OS int

// Operating systems observed in the paper's dataset (Windows 88.5%,
// OS X 9.38%, remainder Linux/other).
const (
	Windows OS = iota
	MacOS
	Linux
)

// String implements fmt.Stringer.
func (o OS) String() string {
	switch o {
	case Windows:
		return "Windows"
	case MacOS:
		return "Mac"
	case Linux:
		return "Linux"
	}
	return "Other"
}

// Browser is the client browser family.
type Browser int

// Browsers, major first (paper §3: Chrome 43%, Firefox 37%, IE 13%,
// Safari 6%, other 2%; the "other" bucket holds the long tail Fig. 22
// breaks out).
const (
	Chrome Browser = iota
	Firefox
	InternetExplorer
	Safari
	Edge
	Opera
	Vivaldi
	Yandex
	SeaMonkey
	OtherBrowser
)

// String implements fmt.Stringer.
func (b Browser) String() string {
	switch b {
	case Chrome:
		return "Chrome"
	case Firefox:
		return "Firefox"
	case InternetExplorer:
		return "IE"
	case Safari:
		return "Safari"
	case Edge:
		return "Edge"
	case Opera:
		return "Opera"
	case Vivaldi:
		return "Vivaldi"
	case Yandex:
		return "Yandex"
	case SeaMonkey:
		return "SeaMonkey"
	}
	return "Other"
}

// Popular reports whether the browser is one of the paper's four major
// families (everything else lands in the "Other" analysis bucket).
func (b Browser) Popular() bool {
	switch b {
	case Chrome, Firefox, InternetExplorer, Safari, Edge:
		return true
	}
	return false
}

// Platform is one client machine's execution environment.
type Platform struct {
	OS      OS
	Browser Browser
	// GPU reports hardware rendering availability; without it the CPU
	// decodes and renders every frame.
	GPU bool
	// CPUCores is the machine's core count.
	CPUCores int
	// CPULoad is the background utilization fraction of the machine's
	// cores in [0, 1) contributed by other applications.
	CPULoad float64
	// FlashInternal marks browsers that ship an integrated Flash runtime
	// (e.g. Chrome's PPAPI) or native HLS (Safari on OS X); these have the
	// most efficient delivery and rendering paths.
	FlashInternal bool
}

// UserAgent renders a compact OS/browser label used in session records.
// The labels of every known (browser, OS) pair are built once, so a
// session's label costs no allocation.
func (p Platform) UserAgent() string {
	if uint(p.Browser) < uint(len(userAgents)) && uint(p.OS) < uint(len(userAgents[0])) {
		return userAgents[p.Browser][p.OS]
	}
	return userAgent(p.Browser, p.OS)
}

func userAgent(b Browser, o OS) string { return b.String() + "/" + o.String() }

// userAgents is UserAgent's table, indexed by browser, then OS.
var userAgents = func() (t [OtherBrowser + 1][Linux + 1]string) {
	for b := range t {
		for o := range t[b] {
			t[b][o] = userAgent(Browser(b), OS(o))
		}
	}
	return t
}()
