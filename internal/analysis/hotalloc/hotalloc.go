// Package hotalloc implements SV006: per-event hot paths must not
// allocate. The simulator executes millions of virtual events per run
// — every page touch, queue operation, and flight-recorder emit — and
// a single heap allocation or interface boxing on such a path turns
// into garbage-collector pressure that scales with simulated work,
// not with wall-clock configuration. A function opts in by carrying
// `//simvet:hot` on its declaration; inside it the pass flags
//
//   - explicit allocations: new, make, address-taken composite
//     literals, and slice or map literals,
//   - append, which may grow its backing array (preallocate capacity
//     and suppress with an allow directive where growth is amortized),
//   - closures (func literals capture their environment on the heap),
//   - method values: a bound method used as a value rather than called
//     (x.M passed to a scheduler) allocates a closure holding its
//     receiver, just as a func literal does; bind it once, outside
//     the per-event path, and pass the stored func,
//   - interface boxing: passing or converting a concrete
//     non-pointer-shaped value to an interface, which copies the value
//     to the heap. Pointer-shaped values (pointers, maps, channels,
//     funcs) fit the interface word and are exempt.
//
// Deliberate allocations — one record per scheduled event, a
// writeback request — take a `//simvet:allow SV006 reason` directive.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"memhogs/internal/analysis"
)

// Analyzer is the SV006 pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Code: "SV006",
	Doc: "forbid heap allocation and interface boxing inside //simvet:hot functions; " +
		"per-event paths must reuse preallocated storage",
	Run: run,
}

const marker = "//simvet:hot"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !analysis.HasMarker(fd.Doc, marker) {
				continue
			}
			checkBody(pass, funcName(fd), fd.Body)
		}
	}
	return nil
}

// funcName renders the declaration for diagnostics, e.g. "Emit" or
// "(*Recorder).Emit".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if se, ok := t.(*ast.StarExpr); ok {
		if id, ok := se.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	}
	if id, ok := t.(*ast.Ident); ok {
		return "(" + id.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

func checkBody(pass *analysis.Pass, fname string, body *ast.BlockStmt) {
	// Selectors in call position: Inspect visits a call before its
	// callee, so x.M() is known to be a call when x.M is reached.
	called := map[*ast.SelectorExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				called[sel] = true
			}
			checkCall(pass, fname, n)
		case *ast.SelectorExpr:
			if s, ok := pass.TypesInfo.Selections[n]; ok && s.Kind() == types.MethodVal && !called[n] {
				pass.Reportf(n.Pos(), "closure allocation (method value %s) in //simvet:hot %s; bind it once outside the per-event path", types.ExprString(n), fname)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "heap allocation (address-taken composite literal) in //simvet:hot %s; reuse preallocated storage", fname)
				}
			}
		case *ast.CompositeLit:
			if t := pass.TypesInfo.Types[n].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(), "heap allocation (%s literal) in //simvet:hot %s; reuse preallocated storage", litKind(t), fname)
				}
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocation (func literal) in //simvet:hot %s; hoist the function out of the per-event path", fname)
		}
		return true
	})
}

func litKind(t types.Type) string {
	if _, ok := t.Underlying().(*types.Map); ok {
		return "map"
	}
	return "slice"
}

func checkCall(pass *analysis.Pass, fname string, call *ast.CallExpr) {
	// Allocating builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "new", "make":
				pass.Reportf(call.Pos(), "heap allocation (%s) in //simvet:hot %s; preallocate outside the per-event path", b.Name(), fname)
			case "append":
				pass.Reportf(call.Pos(), "append in //simvet:hot %s may grow its backing array; preallocate capacity (and allow where growth is amortized)", fname)
			}
			return
		}
	}

	tv := pass.TypesInfo.Types[ast.Unparen(call.Fun)]
	if tv.IsType() {
		// Conversion: only interface targets box.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxes(pass, call.Args[0]) {
			pass.Reportf(call.Pos(), "interface boxing (conversion of %s) in //simvet:hot %s", argType(pass, call.Args[0]), fname)
		}
		return
	}

	typ := tv.Type
	if typ == nil {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if s, ok := pass.TypesInfo.Selections[sel]; ok {
				typ = s.Type()
			}
		}
	}
	if typ == nil {
		return
	}
	sig, ok := typ.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			continue // forwarding a slice, not boxing its elements
		}
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if boxes(pass, arg) {
			pass.Reportf(arg.Pos(), "interface boxing (%s argument) in //simvet:hot %s; avoid interface parameters on the per-event path", argType(pass, arg), fname)
		}
	}
}

// boxes reports whether passing e to an interface heap-allocates: the
// static type is concrete and not pointer-shaped (a pointer, map,
// channel, or func fits the interface data word without allocating).
func boxes(pass *analysis.Pass, e ast.Expr) bool {
	tv := pass.TypesInfo.Types[ast.Unparen(e)]
	if tv.Type == nil || tv.IsNil() {
		return false
	}
	t := tv.Type
	if types.IsInterface(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

func argType(pass *analysis.Pass, e ast.Expr) string {
	if t := pass.TypesInfo.Types[ast.Unparen(e)].Type; t != nil {
		return t.String()
	}
	return "value"
}
