// Command simvet runs the repository's static-analysis suite
// (internal/analysis): seven passes that prove the simulator's
// determinism and instrumentation invariants at compile time.
//
//	SV001 nodeterm — no wall-clock/global-rand/env in the simulated stack
//	SV002 maporder — no map-iteration order reaching rendered output
//	SV003 emitpair — chaos sites co-located with events; registries never drift
//	SV004 nilrecv  — //simvet:nilsafe types tolerate nil receivers
//	SV005 errdrop  — no silently dropped errors chaos can trigger
//	SV006 hotalloc — no heap allocation or boxing in //simvet:hot paths
//	SV007 staleallow — no //simvet:allow directive that suppresses nothing
//
// Usage:
//
//	simvet [packages]   (default ./...)
//
// simvet loads the module's non-test packages from source and runs
// the whole suite in one process, in dependency order, so package
// facts flow from each package to its importers in memory.
//
// Suppress a finding with `//simvet:allow SVnnn reason` on the line
// or the line above; the reason is mandatory.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"memhogs/internal/analysis"
	"memhogs/internal/analysis/emitpair"
	"memhogs/internal/analysis/errdrop"
	"memhogs/internal/analysis/hotalloc"
	"memhogs/internal/analysis/maporder"
	"memhogs/internal/analysis/nilrecv"
	"memhogs/internal/analysis/nodeterm"
	"memhogs/internal/analysis/staleallow"
)

// suite is the full simvet pass list.
var suite = []*analysis.Analyzer{
	nodeterm.Analyzer,
	maporder.Analyzer,
	emitpair.Analyzer,
	nilrecv.Analyzer,
	errdrop.Analyzer,
	hotalloc.Analyzer,
	staleallow.Analyzer,
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 && (args[0] == "-h" || args[0] == "-help" || args[0] == "--help") {
		usage()
		return
	}
	diags, err := run(".", args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simvet: %v\n", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

func usage() {
	fmt.Println("usage: simvet [packages]   (default ./...)")
	fmt.Println()
	fmt.Println("passes:")
	for _, a := range suite {
		fmt.Printf("  %s %-9s %s\n", a.Code, a.Name, a.Doc)
	}
	fmt.Println()
	fmt.Println("suppress one finding with `//simvet:allow SVnnn reason` on the line or the line above")
}

// run loads the packages matched by patterns in the module at dir
// and runs the whole suite over them, returning the surviving
// diagnostics with paths relative to dir.
func run(dir string, patterns []string) ([]analysis.RenderedDiag, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, pkgs, err := analysis.LoadModule(dir, patterns...)
	if err != nil {
		return nil, err
	}
	diags, err := analysis.RunAnalyzers(suite, pkgs, loader.Fset, analysis.NewFactStore())
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	analysis.Relativize(abs, diags)
	return diags, nil
}
