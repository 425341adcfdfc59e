// Package specs embeds the shipped campaign spec files. Each *.json file
// here is a built-in preset named by its file stem: internal/experiment
// resolves "preset" keys and sweep -preset against FS, so the file is
// the campaign's only definition.
package specs

import "embed"

// FS holds every spec file in this directory.
//
//go:embed *.json
var FS embed.FS
