// Package logging is the commands' shared structured-logging setup:
// one log/slog logger on stderr in the format -log-format names, and
// the structured counterpart of log.Fatal.
package logging

import (
	"fmt"
	"log/slog"
	"os"
)

// New builds a command's structured logger on stderr: the
// human-oriented text handler by default, or JSON for machine-parsed
// deployments (-log-format=json) — serve mode's logs line up with the
// rest of an observability pipeline that way. Timestamps stay on; the
// level floor is Info.
func New(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("-log-format must be text or json (got %q)", format)
}

// Fatal logs the error at Error level and exits non-zero — the
// structured-logging counterpart of log.Fatal.
func Fatal(log *slog.Logger, msg string, args ...any) {
	log.Error(msg, args...)
	os.Exit(1)
}
