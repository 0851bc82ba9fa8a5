package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// runnerFixture parses src as one single-file package, ready for
// RunAnalyzers (the passes under test never touch type information).
func runnerFixture(t *testing.T, src string) (*token.FileSet, []*LoadedPackage) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return fset, []*LoadedPackage{{Path: "p", Files: []*ast.File{f}}}
}

const staleSrc = `package p

func f() int {
	//simvet:allow SV901 nothing on the next line ever fires
	return 1
}
`

// TestStaleSweepGating pins SV007's switch: the same directive that
// suppresses nothing is reported only when the staleallow pass is in
// the suite, and only for codes the run actually executed.
func TestStaleSweepGating(t *testing.T) {
	noop := func(*Pass) error { return nil }
	sv901 := &Analyzer{Name: "quiet", Code: "SV901", Run: noop}
	sv007 := &Analyzer{Name: "staleallow", Code: "SV007", Run: noop}

	fset, pkgs := runnerFixture(t, staleSrc)
	diags, err := RunAnalyzers([]*Analyzer{sv901}, pkgs, fset, NewFactStore())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("without staleallow in the suite got %v, want none", diags)
	}

	fset, pkgs = runnerFixture(t, staleSrc)
	diags, err = RunAnalyzers([]*Analyzer{sv901, sv007}, pkgs, fset, NewFactStore())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Code != "SV007" || diags[0].Line != 4 {
		t.Fatalf("with staleallow got %v, want one SV007 at line 4", diags)
	}
	if !strings.Contains(diags[0].Message, "SV901") {
		t.Fatalf("SV007 message %q does not name the stale code", diags[0].Message)
	}

	// A directive naming a pass outside the run is unjudged: with only
	// staleallow executing, SV901's fate is unknown.
	fset, pkgs = runnerFixture(t, staleSrc)
	diags, err = RunAnalyzers([]*Analyzer{sv007}, pkgs, fset, NewFactStore())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("directive for a pass outside the run got %v, want none", diags)
	}
}

// TestStaleSweepSpared pins the two ways a directive escapes SV007: by
// suppressing a real diagnostic, and by an SV007 allow on the line
// above keeping it on purpose.
func TestStaleSweepSpared(t *testing.T) {
	firing := &Analyzer{Name: "loud", Code: "SV901", Run: func(p *Pass) error {
		// Report on the fixture's return statement, under the live
		// directive.
		ast.Inspect(p.Files[0], func(n ast.Node) bool {
			if r, ok := n.(*ast.ReturnStmt); ok {
				p.Reportf(r.Pos(), "synthetic finding")
			}
			return true
		})
		return nil
	}}
	sv007 := &Analyzer{Name: "staleallow", Code: "SV007", Run: func(*Pass) error { return nil }}

	fset, pkgs := runnerFixture(t, staleSrc)
	diags, err := RunAnalyzers([]*Analyzer{firing, sv007}, pkgs, fset, NewFactStore())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("live directive got %v, want none", diags)
	}

	fset, pkgs = runnerFixture(t, `package p

func f() int {
	//simvet:allow SV007 stale on purpose, migration in flight
	//simvet:allow SV901 retired call site
	return 1
}
`)
	quiet := &Analyzer{Name: "quiet", Code: "SV901", Run: func(*Pass) error { return nil }}
	diags, err = RunAnalyzers([]*Analyzer{quiet, sv007}, pkgs, fset, NewFactStore())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("kept-on-purpose directive got %v, want none", diags)
	}
}
