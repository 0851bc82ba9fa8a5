package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PkgTail returns the last slash-separated element of an import path.
func PkgTail(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// MatchesScope reports whether pkgPath denotes one of the named
// simulator-stack packages. Real packages live at
// "<module>/internal/<name>"; analyzer testdata packages use the bare
// path "<name>". Matching both lets one analyzer serve production
// code and its own test fixtures.
func MatchesScope(pkgPath string, names map[string]bool) bool {
	tail := PkgTail(pkgPath)
	if !names[tail] {
		return false
	}
	return pkgPath == tail || strings.HasSuffix(pkgPath, "internal/"+tail)
}

// HasMarker reports whether any comment in cg starts with marker, a
// directive such as "//simvet:hot". A nil group has no marker.
func HasMarker(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.HasPrefix(c.Text, marker) {
			return true
		}
	}
	return false
}

// CalleeFunc resolves the function or method a call expression
// invokes, or nil for builtins, conversions, and indirect calls
// through function values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		obj = info.Uses[fn.Sel]
	default:
		return nil
	}
	f, _ := obj.(*types.Func)
	return f
}

// FuncPkgPath returns the import path of the package declaring f, or
// "" for builtins.
func FuncPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// ConstName resolves expr to a named constant declared in a package
// whose name is pkgName and whose type's name is typeName, returning
// the constant's name and true on a match. It accepts both qualified
// references (events.FaultSoft) and bare identifiers from inside the
// declaring package.
func ConstName(info *types.Info, expr ast.Expr, pkgName, typeName string) (string, bool) {
	var obj types.Object
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	default:
		return "", false
	}
	c, ok := obj.(*types.Const)
	if !ok || c.Pkg() == nil || c.Pkg().Name() != pkgName {
		return "", false
	}
	named, ok := c.Type().(*types.Named)
	if !ok || named.Obj().Name() != typeName {
		return "", false
	}
	return c.Name(), true
}

// ReceiverNamed returns the named type of a method's receiver
// (unwrapping one pointer), or nil if f is not a method.
func ReceiverNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
