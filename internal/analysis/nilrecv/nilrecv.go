// Package nilrecv implements SV004: instrumentation must cost one
// branch when it is off. The flight recorder and tracer hang off the
// simulated stack as pointers that are nil unless a run asks for
// observability, and every hot-path call like rec.Emit(...) relies on
// the method itself tolerating a nil receiver. A type opts in by
// carrying `//simvet:nilsafe` on its declaration; every exported
// pointer-receiver method of such a type must then either open with a
// receiver nil guard or touch the receiver only through further
// method calls (which are themselves checked). A forgotten guard is a
// latent panic that only fires in un-instrumented runs — the exact
// configuration the test suite exercises least.
package nilrecv

import (
	"go/ast"
	"go/token"
	"go/types"

	"memhogs/internal/analysis"
)

// Analyzer is the SV004 pass.
var Analyzer = &analysis.Analyzer{
	Name: "nilrecv",
	Code: "SV004",
	Doc: "exported methods of //simvet:nilsafe types must tolerate nil receivers: " +
		"guard first, or use the receiver only as a method-call receiver",
	Run: run,
}

const marker = "//simvet:nilsafe"

func run(pass *analysis.Pass) error {
	marked := markedTypes(pass)
	if len(marked) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if _, isPtr := sig.Recv().Type().(*types.Pointer); !isPtr {
				continue // value receivers cannot be nil
			}
			named := analysis.ReceiverNamed(fn)
			if named == nil || !marked[named.Obj()] {
				continue
			}
			checkMethod(pass, fd, named)
		}
	}
	return nil
}

// markedTypes collects the type names whose declarations carry the
// nilsafe marker (in the spec's doc, line comment, or the enclosing
// gendecl's doc).
func markedTypes(pass *analysis.Pass) map[*types.TypeName]bool {
	marked := map[*types.TypeName]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if analysis.HasMarker(gd.Doc, marker) || analysis.HasMarker(ts.Doc, marker) || analysis.HasMarker(ts.Comment, marker) {
					if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
						marked[tn] = true
					}
				}
			}
		}
	}
	return marked
}

func checkMethod(pass *analysis.Pass, fd *ast.FuncDecl, named *types.Named) {
	recv := receiverObj(pass, fd)
	if recv == nil {
		return // anonymous receiver: the body cannot dereference it
	}
	if startsWithNilGuard(pass, fd.Body, recv) {
		return
	}
	if pos, bad := firstDeref(pass, fd.Body, recv); bad {
		pass.Reportf(pos, "exported method (*%s).%s dereferences its receiver without a leading nil guard; //simvet:nilsafe types must keep the one-branch-when-off guarantee", named.Obj().Name(), fd.Name.Name)
	}
}

func receiverObj(pass *analysis.Pass, fd *ast.FuncDecl) types.Object {
	if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	name := fd.Recv.List[0].Names[0]
	if name.Name == "_" {
		return nil
	}
	return pass.TypesInfo.Defs[name]
}

// startsWithNilGuard accepts the sanctioned shapes:
//
//	if r == nil { ... return }        as the first statement,
//	if r == nil || cheap { return }   (|| short-circuits, so the
//	                                  right side never sees nil), or
//	if r != nil { ... }               with only returns after it.
func startsWithNilGuard(pass *analysis.Pass, body *ast.BlockStmt, recv types.Object) bool {
	if len(body.List) == 0 {
		return true // empty body cannot dereference
	}
	ifs, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return false
	}
	// Peel `||` chains down to the leftmost operand: only that one is
	// guaranteed to evaluate before any dereference.
	cond := ast.Unparen(ifs.Cond)
	inOr := false
	for {
		be, isBin := cond.(*ast.BinaryExpr)
		if !isBin || be.Op != token.LOR {
			break
		}
		cond = ast.Unparen(be.X)
		inOr = true
	}
	cmp, ok := nilComparison(pass, cond, recv)
	if !ok {
		return false
	}
	if inOr && cmp != "==" {
		// `if r != nil || ...` falls through with r still nil.
		return false
	}
	switch cmp {
	case "==":
		// The guard body must leave the function.
		n := len(ifs.Body.List)
		if n == 0 {
			return false
		}
		_, isReturn := ifs.Body.List[n-1].(*ast.ReturnStmt)
		return isReturn
	case "!=":
		// Everything live must be inside the guard.
		for _, s := range body.List[1:] {
			if _, isReturn := s.(*ast.ReturnStmt); !isReturn {
				return false
			}
		}
		return true
	}
	return false
}

func nilComparison(pass *analysis.Pass, cond ast.Expr, recv types.Object) (string, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return "", false
	}
	op := be.Op.String()
	if op != "==" && op != "!=" {
		return "", false
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == recv
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if (isRecv(be.X) && isNil(be.Y)) || (isNil(be.X) && isRecv(be.Y)) {
		return op, true
	}
	return "", false
}

// firstDeref finds the first expression that would fault on a nil
// receiver: a field selection, indexing, or explicit dereference.
// Method calls through the receiver are fine (callees are themselves
// nil-safe by this pass), as are nil comparisons and passing the
// pointer along.
func firstDeref(pass *analysis.Pass, body *ast.BlockStmt, recv types.Object) (pos token.Pos, bad bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if bad {
			return false
		}
		switch e := n.(type) {
		case *ast.SelectorExpr:
			id, ok := ast.Unparen(e.X).(*ast.Ident)
			if !ok || pass.TypesInfo.Uses[id] != recv {
				return true
			}
			if sel, ok := pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
				pos, bad = e.Pos(), true
				return false
			}
		case *ast.StarExpr:
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recv {
				pos, bad = e.Pos(), true
				return false
			}
		case *ast.IndexExpr:
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recv {
				pos, bad = e.Pos(), true
				return false
			}
		}
		return true
	})
	return pos, bad
}
