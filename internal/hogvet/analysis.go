package hogvet

import (
	"memhogs/internal/compiler"
	"memhogs/internal/footprint"
	"memhogs/internal/lang"
)

// vetCtx carries the verifier's working state for one program.
type vetCtx struct {
	prog  *lang.Program
	tgt   compiler.Target
	opts  Options
	known lang.Env
	ds    Diagnostics

	refCache map[*lang.Loop][]footprint.NestRef // nest root -> collected references
}

func (v *vetCtx) add(d Diagnostic) {
	if d.Program == "" {
		d.Program = v.prog.Name
	}
	v.ds = append(v.ds, d)
}

// estTrips evaluates a loop's trip count under the compile-time-known
// bindings, or the assumed UnknownTrip when the bounds are symbolic.
func (v *vetCtx) estTrips(l *lang.Loop) float64 {
	if t, ok := trips(l, v.known); ok {
		return float64(t)
	}
	return float64(v.opts.UnknownTrip)
}

// trips returns the exact trip count when both bounds evaluate under
// env.
func trips(l *lang.Loop, env lang.Env) (int64, bool) {
	lo, ok1 := l.Lo.TryEval(env)
	hi, ok2 := l.Hi.TryEval(env)
	if !ok1 || !ok2 {
		return 0, false
	}
	t := (hi-lo)/l.Step + 1
	if t < 0 {
		t = 0
	}
	return t, true
}

// boundsKnown reports whether every loop on the path has evaluable
// bounds.
func (v *vetCtx) boundsKnown(path []*lang.Loop) bool {
	for _, l := range path {
		if _, ok := trips(l, v.known); !ok {
			return false
		}
	}
	return true
}

// nestRefs returns (and caches) footprint.NestRefs for a nest root
// under the compile-time-known bindings.
func (v *vetCtx) nestRefs(root *lang.Loop) []footprint.NestRef {
	refs, ok := v.refCache[root]
	if !ok {
		refs = footprint.NestRefs(root, v.known)
		v.refCache[root] = refs
	}
	return refs
}

// collectNests returns every top-level loop nest the compiler analyzes
// independently: top-level loops of the main body and of each
// procedure, with driver loops (loops containing calls) transparent,
// mirroring the compiler's nest discovery.
func (v *vetCtx) collectNests() []nest {
	var out []nest
	for _, pr := range v.prog.Procs {
		out = append(out, bodyNests(pr.Body, pr.Name)...)
	}
	out = append(out, bodyNests(v.prog.Body, "")...)
	return out
}

// nest is one independently analyzed loop nest.
type nest struct {
	root *lang.Loop
	proc string
}

func bodyNests(body []lang.Stmt, proc string) []nest {
	var out []nest
	for _, s := range body {
		l, ok := s.(*lang.Loop)
		if !ok {
			continue
		}
		if footprint.ContainsCall(l) {
			// Driver loop: its inner nests are analyzed independently.
			out = append(out, bodyNests(l.Body, proc)...)
			continue
		}
		out = append(out, nest{root: l, proc: proc})
	}
	return out
}

// temporalLoops recomputes, from the AST alone, the loops the
// compiler's reuse analysis attributes temporal reuse to for a
// reference with the given linearized subscript: loops whose variable
// the subscript provably does not advance with (zero coefficient), plus
// — unless the target is adaptive — loops with a symbolic stride, which
// the analysis cannot distinguish from loop invariance (the FFTPDE
// misdetection).
func temporalLoops(lin *lang.Affine, path []*lang.Loop, adaptive bool) (loops []*lang.Loop, symbolic []*lang.Loop) {
	for _, l := range path {
		coef, sym := lin.CoefOf(l.Var)
		switch {
		case sym && !adaptive:
			loops = append(loops, l)
			symbolic = append(symbolic, l)
		case !sym && coef == 0:
			loops = append(loops, l)
		}
	}
	return loops, symbolic
}

// eq2Priority recomputes equation (2) — Σ 2^depth over temporal loops,
// outermost depth 0, depth capped at 20 — independently of the
// compiler's implementation.
func eq2Priority(lin *lang.Affine, path []*lang.Loop, adaptive bool) int {
	loops, _ := temporalLoops(lin, path, adaptive)
	p := 0
	for _, l := range loops {
		d := depthOf(l, path)
		if d > 20 {
			d = 20
		}
		p += 1 << uint(d)
	}
	return p
}

func depthOf(l *lang.Loop, path []*lang.Loop) int {
	for i, p := range path {
		if p == l {
			return i
		}
	}
	return 0
}
