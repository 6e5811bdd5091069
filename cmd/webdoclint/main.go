// Command webdoclint runs the project's static analyzers — the build-
// time guard for the fabric's cross-cutting invariants (durable writes
// through atomicio, sorted lock declarations, errors.Is on sentinels,
// trace propagation in handler scopes, route-around classification,
// wire-tag codec exhaustiveness, and a non-test caller for every name
// declared in internal/).
// It is stdlib-only: packages are parsed with go/parser and
// type-checked with go/types against source, no x/tools.
//
// Usage:
//
//	webdoclint [-json] [-list] [dir ... | ./...]
//
// With no arguments (or "./...") it lints every non-test package of
// the enclosing module. Named directories are reported on alone, but
// the whole module is still loaded, since unreached counts references
// from every package. Diagnostics print one per line as
// file:line:col: message (analyzer); -json switches to an indented
// JSON array of typed diagnostics, the same machine-readable
// convention as webdocctl -json. Exit status is 1 when diagnostics
// were reported, 2 when a package failed to load or type-check.
//
// A finding that is a deliberate exception carries a written waiver in
// the code: //lint:ignore <analyzer> <reason> on the flagged line or
// the line above it. Reasons are mandatory and unused waivers are
// diagnosed, so the exception list can never silently rot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "print diagnostics as an indented JSON array")
	list := flag.Bool("list", false, "print the analyzer catalog and exit")
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fail("webdoclint: %v", err)
	}
	loader, err := analysis.NewLoader(wd)
	if err != nil {
		fail("webdoclint: %v", err)
	}

	// With ./... among the arguments every package is reported on;
	// otherwise only the named ones, though the whole module is always
	// loaded (see analysis.Lint).
	var dirs []string
	for _, arg := range flag.Args() {
		if arg == "./..." || arg == "..." {
			dirs = nil
			break
		}
		dirs = append(dirs, strings.TrimSuffix(arg, "/"))
	}
	diags, err := analysis.Lint(loader, dirs, analyzers)
	if err != nil {
		fail("webdoclint: %v", err)
	}
	for i := range diags {
		if rel, err := filepath.Rel(loader.ModRoot, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fail("webdoclint: encoding json: %v", err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "webdoclint: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
