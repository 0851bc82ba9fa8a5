// Package analysistest runs a simvet analyzer over GOPATH-style
// fixture packages (testdata/src/<path>/*.go) and checks its
// diagnostics against `// want "regexp"` comments, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract closely enough
// that the fixtures would port unchanged.
//
// Expectations: a comment `// want "re"` (one or more quoted regexps)
// on a source line demands exactly that many diagnostics on the line,
// each matching one regexp. Lines without a want comment must produce
// no diagnostics. `//simvet:allow SVnnn reason` directives are honored
// before matching, so fixtures can demonstrate the allowlist.
package analysistest

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"memhogs/internal/analysis"
)

// Run loads each named fixture package from testdataDir/src/<path>,
// analyzes them in the given order (list dependencies first so
// package facts flow to their importers), and verifies the want
// expectations in every named package.
func Run(t *testing.T, testdataDir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	RunAll(t, testdataDir, []*analysis.Analyzer{a}, pkgPaths...)
}

// RunAll is Run for a multi-analyzer suite: the fixtures see the
// passes' combined diagnostics, which is what cross-pass checks like
// staleallow (SV007 judges directives against every other pass's
// output) need to demonstrate.
func RunAll(t *testing.T, testdataDir string, analyzers []*analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	srcRoot := filepath.Join(testdataDir, "src")
	l := analysis.NewLoader()

	fixtures, err := discover(srcRoot)
	if err != nil {
		t.Fatalf("discover fixtures: %v", err)
	}
	for path, files := range fixtures {
		l.SrcFiles[path] = files
	}
	if err := l.StdExports(".", externalImports(fixtures)); err != nil {
		t.Fatalf("resolve standard-library imports: %v", err)
	}

	var pkgs []*analysis.LoadedPackage
	for _, path := range pkgPaths {
		lp, err := l.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		pkgs = append(pkgs, lp)
	}
	diags, err := analysis.RunAnalyzers(analyzers, pkgs, l.Fset, analysis.NewFactStore())
	if err != nil {
		t.Fatalf("run analyzers: %v", err)
	}
	checkWants(t, l, pkgs, diags)
}

// discover maps every directory under srcRoot containing .go files to
// its fixture import path (the slash-separated relative directory).
func discover(srcRoot string) (map[string][]string, error) {
	fixtures := map[string][]string{}
	err := filepath.Walk(srcRoot, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel, err := filepath.Rel(srcRoot, filepath.Dir(p))
		if err != nil {
			return err
		}
		path := filepath.ToSlash(rel)
		fixtures[path] = append(fixtures[path], p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, files := range fixtures {
		sort.Strings(files)
	}
	return fixtures, nil
}

// externalImports returns the import paths referenced by the fixtures
// that are not fixtures themselves — i.e. the standard-library
// packages whose export data the loader must resolve.
func externalImports(fixtures map[string][]string) []string {
	seen := map[string]bool{}
	fset := token.NewFileSet()
	for _, files := range fixtures {
		for _, f := range files {
			af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
			if err != nil {
				continue // surfaces as a load error later
			}
			for _, imp := range af.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if _, isFixture := fixtures[path]; !isFixture {
					seen[path] = true
				}
			}
		}
	}
	var out []string
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)`)

// quotedRE accepts both x/tools-style backtick patterns and
// double-quoted ones: `re` or "re".
var quotedRE = regexp.MustCompile("`([^`]*)`" + `|"((?:[^"\\]|\\.)*)"`)

type key struct {
	file string
	line int
}

// checkWants compares diagnostics against the fixtures' expectations.
func checkWants(t *testing.T, l *analysis.Loader, pkgs []*analysis.LoadedPackage, diags []analysis.RenderedDiag) {
	t.Helper()
	want := map[key][]*regexp.Regexp{}
	for _, lp := range pkgs {
		for _, f := range lp.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := l.Fset.Position(c.Pos())
					for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
						pat := q[1]
						if pat == "" {
							pat = q[2]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						}
						k := key{pos.Filename, pos.Line}
						want[k] = append(want[k], re)
					}
				}
			}
		}
	}
	matched := map[key][]bool{}
	for k, res := range want {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range diags {
		k := key{d.File, d.Line}
		res := want[k]
		found := false
		for i, re := range res {
			if !matched[k][i] && re.MatchString(d.Message) {
				matched[k][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", diagString(d))
		}
	}
	for k, res := range want {
		for i, re := range res {
			if !matched[k][i] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}

func diagString(d analysis.RenderedDiag) string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Code, d.Message)
}
