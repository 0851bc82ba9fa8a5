// Package analysis is the foundation of simvet, the repository's own
// static-analysis suite: a deliberately small, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis vocabulary
// (Analyzer, Pass, Diagnostic, package facts) on top of the standard
// library's go/ast and go/types.
//
// The paper's thesis is that a compiler can prove memory-management
// properties ahead of execution instead of discovering them run by
// run; simvet applies the same move to this repository's *own*
// invariants. Everything the simulator guarantees dynamically —
// byte-identical parallel campaigns, counter-exact flight recording,
// seed-replayable chaos — rests on rules that used to be enforced only
// by tests: no wall-clock time or unseeded randomness inside the
// simulated stack, no map-iteration order leaking into rendered
// output, every chaos injection site co-located with its flight-
// recorder event, nil-tolerant fast paths on the instrumentation
// types, no silently dropped errors from the storage layers, no heap
// allocation on the per-event hot paths. The analyzers in the sibling
// packages (nodeterm, maporder, emitpair, nilrecv, errdrop, hotalloc,
// staleallow) prove those rules once, statically, in CI — and
// staleallow turns the suite on its own escape hatch, flagging any
// //simvet:allow directive that no longer suppresses anything.
//
// Why not import golang.org/x/tools directly? The module is kept
// dependency-free on purpose (the simulator itself uses nothing but
// the standard library), so this package mirrors the x/tools API
// shape closely enough that the analyzers could be ported to the real
// framework by changing imports. The driver (cmd/simvet) loads the
// module from source and runs every pass over every package in one
// process, so package facts never leave memory.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
)

// Analyzer describes one static-analysis pass. Each simvet pass owns
// exactly one diagnostic code (SV001..SV007).
type Analyzer struct {
	// Name is the short pass name, e.g. "nodeterm".
	Name string
	// Code is the stable diagnostic code, e.g. "SV001". Every
	// diagnostic the pass reports carries this code, and
	// `//simvet:allow SV001 <reason>` suppresses it line by line.
	Code string
	// Doc is the one-paragraph description shown by `simvet -help`.
	Doc string
	// Run executes the pass over one package.
	Run func(*Pass) error
}

// Fact is a package-level fact: a pointer type that one pass attaches
// to a package and downstream passes (analyzing importers of that
// package) can retrieve. Facts are how emitpair checks whole-registry
// properties package by package.
type Fact interface {
	// AFact is a marker method (same convention as x/tools).
	AFact()
}

// Diagnostic is one finding, positioned in the analyzed package's
// file set.
type Diagnostic struct {
	Pos     token.Pos
	Code    string
	Message string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives diagnostics; installed by the driver.
	report func(Diagnostic)
	// facts is the driver's shared fact store.
	facts *FactStore
}

// Reportf records a diagnostic at pos under the analyzer's code.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{Pos: pos, Code: p.Analyzer.Code, Message: fmt.Sprintf(format, args...)})
}

// ExportPackageFact attaches fact to the package being analyzed.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.facts.Set(p.Pkg.Path(), fact)
}

// AllFacts returns every package fact exported so far in this run.
// Packages run in dependency order, so this includes the facts of all
// the current package's transitive imports. Whole-program checks on
// the facade package union over these.
func (p *Pass) AllFacts() []PackageFact {
	return p.facts.All()
}

// FactStore holds package facts for a whole driver run, keyed by
// (package path, concrete fact type).
type FactStore struct {
	m map[factKey]Fact
}

type factKey struct {
	path string
	typ  reflect.Type
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[factKey]Fact{}}
}

// Set records fact for the package at path, replacing any previous
// fact of the same concrete type.
func (s *FactStore) Set(path string, fact Fact) {
	s.m[factKey{path, reflect.TypeOf(fact)}] = fact
}

// All returns every stored fact as (path, fact) pairs, sorted by
// package path then fact type so diagnostics derived from the
// iteration stay deterministic.
func (s *FactStore) All() []PackageFact {
	var out []PackageFact
	for k, f := range s.m {
		out = append(out, PackageFact{Path: k.path, Fact: f})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		return reflect.TypeOf(a.Fact).String() < reflect.TypeOf(b.Fact).String()
	})
	return out
}

// PackageFact pairs a fact with the package path it belongs to.
type PackageFact struct {
	Path string
	Fact Fact
}
