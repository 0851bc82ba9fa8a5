package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// RenderedDiag is a diagnostic resolved to a concrete file position,
// ready to print and to match against suppression directives.
type RenderedDiag struct {
	File    string // path as recorded in the file set
	Line    int
	Col     int
	Code    string
	Message string
}

func (d RenderedDiag) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Code, d.Message)
}

// allowRE matches the suppression directive. The reason is mandatory:
// an allowlist entry without a justification is itself a smell.
//
//	//simvet:allow SV001 startup banner timestamps the log header
var allowRE = regexp.MustCompile(`^//simvet:allow\s+(SV\d{3})\s+\S`)

// staleAllowCode is the diagnostic code of the staleallow pass. The
// runner keys the stale-directive sweep on its presence in the suite
// (the pass body itself is a no-op: only the runner sees every
// directive next to every diagnostic).
const staleAllowCode = "SV007"

// allowEntry is one //simvet:allow directive: where it sits and
// whether it suppressed anything this run.
type allowEntry struct {
	col  int
	used bool
}

// allowSet records, per file, line, and diagnostic code, the
// suppression directives in force. A directive suppresses matching
// diagnostics on its own line and on the line directly below it (so
// it can sit above the offending statement).
type allowSet map[string]map[int]map[string]*allowEntry

func (s allowSet) add(file string, line, col int, code string) {
	if s[file] == nil {
		s[file] = map[int]map[string]*allowEntry{}
	}
	if s[file][line] == nil {
		s[file][line] = map[string]*allowEntry{}
	}
	s[file][line][code] = &allowEntry{col: col}
}

// allows reports whether a directive covers d, marking the directive
// used: the staleallow sweep later flags the entries never marked.
func (s allowSet) allows(d RenderedDiag) bool {
	lines := s[d.File]
	if lines == nil {
		return false
	}
	for _, line := range []int{d.Line, d.Line - 1} {
		if e := lines[line][d.Code]; e != nil {
			e.used = true
			return true
		}
	}
	return false
}

// stale returns an SV007 diagnostic for every directive that
// suppressed nothing, judged only against the codes of the passes in
// this run: an allow for a pass that did not execute is unjudged, not
// stale. SV007 directives themselves are never flagged — they exist
// to keep a stale allow on purpose, which is a one-level escape, not
// a tower.
func (s allowSet) stale(codes map[string]bool) []RenderedDiag {
	var out []RenderedDiag
	for file, lines := range s {
		for line, byCode := range lines {
			for code, e := range byCode {
				if e.used || code == staleAllowCode || !codes[code] {
					continue
				}
				out = append(out, RenderedDiag{
					File: file,
					Line: line,
					Col:  e.col,
					Code: staleAllowCode,
					Message: fmt.Sprintf(
						"stale //simvet:allow %s: no %s diagnostic on this line or the line below",
						code, code),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Message < b.Message
	})
	return out
}

// collectAllows scans a file's comments for //simvet:allow directives.
func collectAllows(fset *token.FileSet, f *ast.File, into allowSet) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			into.add(pos.Filename, pos.Line, pos.Column, m[1])
		}
	}
}

// RunAnalyzers executes each analyzer over each loaded package (in
// the given order, which must be dependency order so package facts
// flow upward), applies //simvet:allow suppression, and returns the
// surviving diagnostics sorted by position.
func RunAnalyzers(analyzers []*Analyzer, pkgs []*LoadedPackage, fset *token.FileSet, facts *FactStore) ([]RenderedDiag, error) {
	allows := allowSet{}
	for _, lp := range pkgs {
		for _, f := range lp.Files {
			collectAllows(fset, f, allows)
		}
	}
	var diags []RenderedDiag
	for _, lp := range pkgs {
		for _, a := range analyzers {
			report := func(d Diagnostic) {
				pos := fset.Position(d.Pos)
				diags = append(diags, RenderedDiag{
					File:    pos.Filename,
					Line:    pos.Line,
					Col:     pos.Column,
					Code:    d.Code,
					Message: d.Message,
				})
			}
			pass := &Pass{Analyzer: a, Fset: fset, Files: lp.Files, Pkg: lp.Pkg, TypesInfo: lp.Info, facts: facts, report: report}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, lp.Path, err)
			}
		}
	}
	var kept []RenderedDiag
	for _, d := range diags {
		if !allows.allows(d) {
			kept = append(kept, d)
		}
	}
	// With staleallow in the suite, sweep for directives that
	// suppressed nothing. The sweep runs after every pass's output has
	// been matched, so `used` is final; its own diagnostics go back
	// through the allowlist, which is how `//simvet:allow SV007` keeps
	// a stale directive on purpose.
	staleOn := false
	codes := map[string]bool{}
	for _, a := range analyzers {
		codes[a.Code] = true
		if a.Code == staleAllowCode {
			staleOn = true
		}
	}
	if staleOn {
		for _, d := range allows.stale(codes) {
			if !allows.allows(d) {
				kept = append(kept, d)
			}
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Code < b.Code
	})
	return kept, nil
}

// Relativize rewrites each diagnostic's file path relative to dir
// when possible, for stable, readable output.
func Relativize(dir string, diags []RenderedDiag) {
	for i := range diags {
		if rel, err := filepath.Rel(dir, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}
}
