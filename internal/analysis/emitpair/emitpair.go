// Package emitpair implements SV003: the chaos/flight-recorder
// registries can never silently drift. Two families of checks, glued
// together with package facts:
//
// Locally (per package): every probabilistic chaos injection call
// (Injector.Fire/FireDelay/FireExtra) must name its site as a
// chaos.<Site> constant and be co-located with an events.Emit of a
// matching kind — in the same function, or in a helper that function
// calls directly in the same package. "Co-located" is what makes a
// chaos run diagnosable: each injected fault lands next to the event
// that records what the stack did about it. Sites the engine itself
// accounts for (disk latency/errors, timed hot-unplug) only need the
// engine's own ChaosInject event and carry no co-location obligation.
//
// Globally (whole program): every declared events.Kind constant must
// be emitted somewhere in non-test code, and every probabilistic
// chaos.Site must be injected somewhere. Each package exports
// EmittedKinds/FiredSites facts; the pass over the root facade
// package ("memhogs", which transitively imports every emitter)
// unions all facts and reports dead registry entries at the facade's
// import of the registry package.
package emitpair

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"memhogs/internal/analysis"
)

// Analyzer is the SV003 pass.
var Analyzer = &analysis.Analyzer{
	Name: "emitpair",
	Code: "SV003",
	Doc: "every chaos injection site must be co-located with an events.Emit of the " +
		"matching kind, and every declared events.Kind must be emitted somewhere",
	Run: run,
}

// EmittedKinds is the package fact listing every events.Kind constant
// the package passes to Recorder.Emit.
type EmittedKinds struct{ Kinds []string }

// AFact marks EmittedKinds as a fact.
func (*EmittedKinds) AFact() {}

// FiredSites lists every chaos.Site constant the package injects via
// Fire/FireDelay/FireExtra.
type FiredSites struct{ Sites []string }

// AFact marks FiredSites as a fact.
func (*FiredSites) AFact() {}

// KindDecl records one declared events.Kind constant with its
// declaration position rendered as file:line, the form the facade's
// dead-registry diagnostics quote.
type KindDecl struct{ Name, Pos string }

// DeclaredKinds is exported by the events package itself.
type DeclaredKinds struct{ Kinds []KindDecl }

// AFact marks DeclaredKinds as a fact.
func (*DeclaredKinds) AFact() {}

// DeclaredSites is exported by the chaos package itself.
type DeclaredSites struct{ Sites []KindDecl }

// AFact marks DeclaredSites as a fact.
func (*DeclaredSites) AFact() {}

// pairing maps each probabilistic chaos site to the event kinds that
// may discharge its co-location obligation (the site→event table in
// docs/INTERNALS.md). Sites absent from the map are engine-accounted:
// the Injector's own ChaosInject event is their only record.
var pairing = map[string][]string{
	"ReleaserStall": {"ReleaserFree", "ReleaserSkipRef", "ReleaserSkipGone"},
	"DaemonStorm":   {"DaemonWake", "DaemonSteal"},
	"ReleaseDrop":   {"RTReleaseDup", "RTReleaseNotRes", "RTReleaseBuffer", "RTReleaseOverflow", "RTReleaseIssue"},
	"ReleaseDup":    {"RTReleaseDup", "RTReleaseNotRes", "RTReleaseBuffer", "RTReleaseOverflow", "RTReleaseIssue"},
	"ReleaseLate":   {"RTReleaseDup", "RTReleaseNotRes", "RTReleaseBuffer", "RTReleaseOverflow", "RTReleaseIssue"},
	"PrefetchDrop":  {"RTPrefetchFilter", "RTPrefetchIssue", "RTPrefetchDrop"},
	"PrefetchDup":   {"RTPrefetchFilter", "RTPrefetchIssue", "RTPrefetchDrop"},
	"StaleShared":   {"PMRefresh"},
}

// engineScheduled sites fire inside the chaos engine on its own
// timeline (mem hot-unplug/replug), so no package outside chaos ever
// calls Fire for them; the whole-program "never injected" check
// exempts them.
var engineScheduled = map[string]bool{
	"MemShrink": true, "MemGrow": true,
	"FarShrink": true, "FarGrow": true,
}

// facadePath is the module-root package whose pass performs the
// whole-program registry checks; it transitively imports every
// emitter (the analyzer testdata mirrors the name).
const facadePath = "memhogs"

func run(pass *analysis.Pass) error {
	inChaosPkg := pass.Pkg.Name() == "chaos"

	emitted := map[string]bool{}
	fired := map[string]bool{}

	// Function summaries for the one-hop co-location rule.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	directEmits := map[*ast.FuncDecl]map[string]bool{}
	callees := map[*ast.FuncDecl][]*ast.FuncDecl{}
	for _, fd := range decls {
		em := map[string]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if kind, ok := emitKind(pass, call); ok {
				em[kind] = true
				emitted[kind] = true
			}
			if callee := analysis.CalleeFunc(pass.TypesInfo, call); callee != nil && callee.Pkg() == pass.Pkg {
				if cd, ok := decls[callee]; ok {
					callees[fd] = append(callees[fd], cd)
				}
			}
			return true
		})
		directEmits[fd] = em
	}

	// The co-location check proper.
	for _, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.CalleeFunc(pass.TypesInfo, call)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Name() != "chaos" {
				return true
			}
			switch callee.Name() {
			case "Fire", "FireDelay", "FireExtra":
			default:
				return true
			}
			if inChaosPkg {
				return true // the engine's own plumbing
			}
			if len(call.Args) == 0 {
				return true
			}
			site, ok := analysis.ConstName(pass.TypesInfo, call.Args[0], "chaos", "Site")
			if !ok {
				pass.Reportf(call.Pos(), "chaos injection with a non-constant site argument; name the chaos.Site constant so the site registry stays auditable")
				return true
			}
			fired[site] = true
			need := pairing[site]
			if len(need) == 0 {
				return true // engine-accounted site
			}
			if !emitsOneOf(fd, need, directEmits, callees) {
				pass.Reportf(call.Pos(), "chaos site %s injected without a co-located events.Emit of %s (in this function or a direct same-package callee)", site, orList(need))
			}
			return true
		})
	}

	// Registry declarations, exported by the registries themselves.
	if pass.Pkg.Name() == "events" {
		pass.ExportPackageFact(&DeclaredKinds{Kinds: declaredConsts(pass, "Kind", "KindCount")})
	}
	if inChaosPkg {
		pass.ExportPackageFact(&DeclaredSites{Sites: declaredConsts(pass, "Site", "NumSites")})
	}
	pass.ExportPackageFact(&EmittedKinds{Kinds: sortedKeys(emitted)})
	pass.ExportPackageFact(&FiredSites{Sites: sortedKeys(fired)})

	if pass.Pkg.Path() == facadePath {
		checkRegistries(pass)
	}
	return nil
}

// emitKind recognizes a call to events.(*Recorder).Emit and resolves
// its kind argument to a constant name.
func emitKind(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	callee := analysis.CalleeFunc(pass.TypesInfo, call)
	if callee == nil || callee.Name() != "Emit" || callee.Pkg() == nil || callee.Pkg().Name() != "events" {
		return "", false
	}
	if len(call.Args) == 0 {
		return "", false
	}
	return analysis.ConstName(pass.TypesInfo, call.Args[0], "events", "Kind")
}

// emitsOneOf reports whether fd emits any of the kinds directly or
// through one hop into a same-package callee.
func emitsOneOf(fd *ast.FuncDecl, kinds []string, directEmits map[*ast.FuncDecl]map[string]bool, callees map[*ast.FuncDecl][]*ast.FuncDecl) bool {
	for _, k := range kinds {
		if directEmits[fd][k] {
			return true
		}
	}
	for _, cd := range callees[fd] {
		for _, k := range kinds {
			if directEmits[cd][k] {
				return true
			}
		}
	}
	return false
}

// declaredConsts collects the constants of the named type declared in
// this package (excluding the count sentinel), with rendered
// positions.
func declaredConsts(pass *analysis.Pass, typeName, sentinel string) []KindDecl {
	var out []KindDecl
	scope := pass.Pkg.Scope()
	names := scope.Names() // already sorted
	for _, name := range names {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || name == sentinel {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok || named.Obj().Name() != typeName || named.Obj().Pkg() != pass.Pkg {
			continue
		}
		pos := pass.Fset.Position(c.Pos())
		out = append(out, KindDecl{Name: name, Pos: fmt.Sprintf("%s:%d", pos.Filename, pos.Line)})
	}
	return out
}

// checkRegistries runs on the facade package: union every package's
// facts and report registry entries nothing ever uses.
func checkRegistries(pass *analysis.Pass) {
	var declKinds DeclaredKinds
	var declSites DeclaredSites
	emitted := map[string]bool{}
	fired := map[string]bool{}
	for _, pf := range pass.AllFacts() {
		switch f := pf.Fact.(type) {
		case *EmittedKinds:
			for _, k := range f.Kinds {
				emitted[k] = true
			}
		case *FiredSites:
			for _, s := range f.Sites {
				fired[s] = true
			}
		case *DeclaredKinds:
			declKinds = *f
		case *DeclaredSites:
			declSites = *f
		}
	}
	pos := registryImportPos(pass, "events")
	for _, k := range declKinds.Kinds {
		if !emitted[k.Name] {
			pass.Reportf(pos, "events.Kind %s (declared at %s) is never emitted in non-test code; delete it or emit it", k.Name, k.Pos)
		}
	}
	pos = registryImportPos(pass, "chaos")
	for _, s := range declSites.Sites {
		if !fired[s.Name] && !engineScheduled[s.Name] {
			pass.Reportf(pos, "chaos.Site %s (declared at %s) is never injected in non-test code; delete it or fire it", s.Name, s.Pos)
		}
	}
}

// registryImportPos anchors a whole-program diagnostic at the
// facade's import of the registry package (falling back to the first
// file) so the report has a position inside the current compilation
// unit.
func registryImportPos(pass *analysis.Pass, tail string) token.Pos {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if analysis.PkgTail(path) == tail {
				return imp.Pos()
			}
		}
	}
	if len(pass.Files) > 0 {
		return pass.Files[0].Name.Pos()
	}
	return token.NoPos
}

func orList(kinds []string) string {
	if len(kinds) == 1 {
		return "events." + kinds[0]
	}
	return "one of events.{" + strings.Join(kinds, ", ") + "}"
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
