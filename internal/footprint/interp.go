package footprint

import (
	"fmt"
	"sort"
	"strings"

	"memhogs/internal/compiler"
	"memhogs/internal/lang"
)

// interp is the abstract interpreter's working state for one
// (program, schedule, version) certification.
type interp struct {
	prog  *lang.Program
	tgt   compiler.Target
	hints []compiler.Hint
	ver   Version
	env   lang.Env // Known + runtime params: the evaluation environment
	known lang.Env // compile-time Known only: mirrors the compiler's view
	far   int64    // far-tier size in pages; 0 = single-tier domain
	prio  int      // FarMinPrio demotion gate
}

// farOn reports whether the two-tier domain is active for this
// interpretation: a far tier is configured and the version's run-time
// layer issues releases at all (only the releaser demotes — daemon
// steals and donations go to swap, so O and P never populate the
// tier).
func (in *interp) farOn() bool { return in.far > 0 && in.ver.UsesRelease() }

// site is one nest occurrence in program execution order. Procedure
// nests appear once per call site, with the formals bound to the
// actuals of that call (the MGRID "single version of code" case:
// resid(NF) and resid(NC) share one compiled nest and one hint set
// but certify at different extents).
type site struct {
	root *lang.Loop
	proc string
	bind map[string]Poly // formal -> actual, as a Poly over params
	// mult is the product of the trip counts of the enclosing
	// (transparent) driver loops: how many times this nest executes
	// per program run. Carried residency saturates, so the DRAM bound
	// never needs it, but the demotion-flow bound does.
	mult Poly
}

func (s *site) line() int { return s.root.Line }

func (s *site) label() string {
	name := "main"
	if s.proc != "" {
		name = s.proc
	}
	lbl := fmt.Sprintf("%s:%d", name, s.line())
	if len(s.bind) > 0 {
		keys := make([]string, 0, len(s.bind))
		for k := range s.bind {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%s", k, s.bind[k].String()))
		}
		lbl += " (" + strings.Join(parts, ", ") + ")"
	}
	return lbl
}

// sites expands the program body into the executed nest sequence:
// driver loops (loops containing calls) are transparent, calls expand
// to the callee's nests under the call's formal bindings.
func (in *interp) sites() []*site {
	var out []*site
	in.bodySites(in.prog.Body, "", nil, ConstPoly(1), &out, 0)
	return out
}

func (in *interp) bodySites(body []lang.Stmt, proc string, bind map[string]Poly, mult Poly, out *[]*site, depth int) {
	if depth > 8 { // defensive: the language has no recursion
		return
	}
	for _, s := range body {
		switch st := s.(type) {
		case *lang.Loop:
			if ContainsCall(st) {
				in.bodySites(st.Body, proc, bind, mult.Mul(tripPoly(st, bind)), out, depth)
				continue
			}
			*out = append(*out, &site{root: st, proc: proc, bind: bind, mult: mult})
		case *lang.Call:
			nb := map[string]Poly{}
			for i, f := range st.Proc.Formals {
				if i < len(st.Args) {
					nb[f] = scalarPoly(st.Args[i], bind)
				}
			}
			in.bodySites(st.Proc.Body, st.Proc.Name, nb, mult, out, depth+1)
		}
	}
}

// ContainsCall reports whether a call statement appears anywhere
// beneath l. Such a loop is a driver loop: the verifiers treat it as
// transparent and analyze the nests inside it independently.
func ContainsCall(l *lang.Loop) bool {
	for _, s := range l.Body {
		switch st := s.(type) {
		case *lang.Call:
			return true
		case *lang.Loop:
			if ContainsCall(st) {
				return true
			}
		}
	}
	return false
}

// NestRef is one array reference found by the verifiers' own AST
// walk, with its independently linearized subscript. The walk is
// shared by this package and hogvet and deliberately separate from
// the compiler's, so a disagreement with the compiled hints surfaces
// as a finding instead of being inherited.
type NestRef struct {
	Array    *lang.Array
	Lin      *lang.Affine // nil when indirect or not linearizable
	Indirect bool         // the reference target is reached through an index array
	Path     []*lang.Loop // enclosing loops within the nest, outermost first
}

// NestRefs gathers every reference beneath a nest root, including the
// index-array reads of indirect references (which stream like ordinary
// affine accesses). known holds the compile-time bindings the
// subscripts are linearized under.
func NestRefs(root *lang.Loop, known lang.Env) []NestRef {
	var out []NestRef
	var walk func(l *lang.Loop, path []*lang.Loop)
	walk = func(l *lang.Loop, path []*lang.Loop) {
		path = append(path, l)
		for _, s := range l.Body {
			switch st := s.(type) {
			case *lang.Loop:
				walk(st, path)
			case *lang.Assign:
				for _, r := range lang.StmtRefs(st) {
					p := append([]*lang.Loop{}, path...)
					lin, ind := linearize(r, known)
					out = append(out, NestRef{Array: r.Array, Lin: lin, Indirect: ind, Path: p})
					if ind && len(r.Index) == 1 {
						if ix, ok := r.Index[0].(*lang.Indirect); ok {
							out = append(out, NestRef{Array: ix.Array, Lin: ix.Idx, Path: p})
						}
					}
				}
			}
		}
	}
	walk(root, nil)
	return out
}

// linearize flattens a reference into a single element offset under
// the compiler's row-major rule and the compile-time-known dimensions
// in known, so signatures here agree with the signatures of the
// compiled hints. It returns (nil, true) for indirect references and
// (nil, false) when a dimension is not known at compile time.
func linearize(r *lang.Ref, known lang.Env) (*lang.Affine, bool) {
	if len(r.Index) == 1 {
		if _, ok := r.Index[0].(*lang.Indirect); ok {
			return nil, true
		}
	}
	scales := make([]int64, len(r.Array.Dims))
	scale := int64(1)
	for d := len(r.Array.Dims) - 1; d >= 0; d-- {
		scales[d] = scale
		dim, ok := r.Array.Dims[d].TryEval(known)
		if !ok {
			return nil, false
		}
		scale *= dim
	}
	lin := &lang.Affine{}
	for d, idx := range r.Index {
		aff, ok := idx.(*lang.Affine)
		if !ok {
			return nil, true
		}
		lin = lang.AddAffine(lin, lang.ScaleAffine(aff, scales[d]))
	}
	return lin, false
}

// Signature canonicalizes an affine's variable terms: two references
// with equal signatures touch the same address stream up to a constant
// offset (the compiler's "group locality").
func Signature(a *lang.Affine) string {
	terms := append([]lang.Term{}, a.Terms...)
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].Var != terms[j].Var {
			return terms[i].Var < terms[j].Var
		}
		return terms[i].CoefParam < terms[j].CoefParam
	})
	var b strings.Builder
	for _, t := range terms {
		fmt.Fprintf(&b, "%s*%d*%s|", t.Var, t.Coef, t.CoefParam)
	}
	return b.String()
}

// group is one signature-equivalence class of affine references to
// one array within one nest.
type group struct {
	sig        string
	minC, maxC int64
	widthElems Poly // interval width in elements, including spread
	ok         bool
	reason     string // why the group forced ⊤, when !ok

	release   *compiler.Hint // matching release directive, if any
	imprecise bool
}

// tripPoly is the loop's trip count as a Poly over params, with the
// site's formal bindings substituted.
func tripPoly(l *lang.Loop, bind map[string]Poly) Poly {
	step := l.Step
	if step <= 0 {
		step = 1
	}
	hi := scalarPoly(l.Hi, bind)
	lo := scalarPoly(l.Lo, bind)
	return hi.Sub(lo).Scale(1, step).AddConst(1)
}

// arrayState is one array's abstract state within one site.
type arrayState struct {
	arr *lang.Array

	fpPoly     Poly  // footprint bound in pages (whole array when top)
	fpPages    int64 // evaluated; -1 unresolved
	wholePages int64 // evaluated whole-array pages; -1 unresolved
	window     int64 // version-specific resident window; -1 unresolved

	policy      Policy
	top         bool
	paramGap    bool // degraded because runtime params were not supplied
	notes       []string
	coversWhole bool // the touched interval spans the whole array
	streamed    bool
	retain      *compiler.Hint // the priority>0 release behind PolicyRetained

	// Two-tier state (zero unless in.farOn()). farOcc is the array's
	// demotable occupancy contribution (capped at the whole array;
	// -1 unresolved); farFlow is the per-execution demotion volume,
	// uncapped since distinct groups release their pages
	// independently (-1 = ⊤: an imprecise/indirect release can demote
	// the same page repeatedly). demote is the first release passing
	// the FarMinPrio gate, for the thrash-window finding.
	farOcc  int64
	farFlow int64
	demote  *compiler.Hint
}

func (st *arrayState) note(s string) {
	for _, n := range st.notes {
		if n == s {
			return
		}
	}
	st.notes = append(st.notes, s)
}

// wholeArray returns the array's total page count: the exact value
// under env (or -1 when unresolved) and the symbolic Poly.
func (in *interp) wholeArray(a *lang.Array) (int64, Poly) {
	poly := ConstPoly(1)
	for _, d := range a.Dims {
		poly = poly.Mul(scalarPoly(d, nil))
	}
	poly = poly.Scale(int64(a.ElemSize), int64(in.tgt.PageSize)).AddConst(1)
	elems, err := a.NumElems(in.env)
	if err != nil {
		return -1, poly
	}
	return ceilDiv(elems*int64(a.ElemSize), int64(in.tgt.PageSize)) + 1, poly
}

// analyzeSite computes the per-array abstract state of one nest
// occurrence under the interpreter's version.
func (in *interp) analyzeSite(s *site) []*arrayState {
	refs := NestRefs(s.root, in.known)

	// Group affine references by signature; collect ⊤ causes.
	type arrAcc struct {
		arr     *lang.Array
		groups  map[string]*group
		order   []string
		reasons []string
		rels    []*compiler.Hint // every release on the array at this site
	}
	accs := map[*lang.Array]*arrAcc{}
	var arrOrder []*lang.Array
	acc := func(a *lang.Array) *arrAcc {
		if x, ok := accs[a]; ok {
			return x
		}
		x := &arrAcc{arr: a, groups: map[string]*group{}}
		accs[a] = x
		arrOrder = append(arrOrder, a)
		return x
	}
	addReason := func(a *arrAcc, r string) {
		for _, have := range a.reasons {
			if have == r {
				return
			}
		}
		a.reasons = append(a.reasons, r)
	}

	for _, r := range refs {
		a := acc(r.Array)
		if r.Indirect {
			addReason(a, "indirectly subscripted (a[b[i]])")
			continue
		}
		if r.Lin == nil {
			addReason(a, "dimensions unknown at compile time")
			continue
		}
		symbolic := false
		for _, t := range r.Lin.Terms {
			if t.CoefParam != "" {
				symbolic = true
			}
		}
		if symbolic {
			addReason(a, "symbolic stride in subscript")
			continue
		}
		sig := Signature(r.Lin)
		g, ok := a.groups[sig]
		if !ok {
			g = &group{sig: sig, minC: r.Lin.Const, maxC: r.Lin.Const, ok: true}
			// Interval width: Σ |coef|·(trips−1) over the group's loop
			// variables, plus the constant spread, plus one.
			for _, t := range r.Lin.Terms {
				var loop *lang.Loop
				for _, l := range r.Path {
					if l.Var == t.Var {
						loop = l
					}
				}
				if loop == nil {
					g.ok = false
					g.reason = fmt.Sprintf("subscript variable %q not bound by the nest", t.Var)
					break
				}
				coef := t.Coef
				if coef < 0 {
					coef = -coef
				}
				g.widthElems = g.widthElems.Add(tripPoly(loop, s.bind).AddConst(-1).Scale(coef, 1))
			}
			a.groups[sig] = g
			a.order = append(a.order, sig)
		}
		if r.Lin.Const < g.minC {
			g.minC = r.Lin.Const
		}
		if r.Lin.Const > g.maxC {
			g.maxC = r.Lin.Const
		}
	}

	// Attach the schedule: releases by group, prefetch distances by
	// array.
	pagesAhead := map[*lang.Array]int64{}
	for i := range in.hints {
		h := &in.hints[i]
		if len(h.Path) == 0 || h.Path[0] != s.root {
			continue
		}
		if h.Kind == compiler.HintPrefetch {
			if h.Array != nil && h.PagesAhead > pagesAhead[h.Array] {
				pagesAhead[h.Array] = h.PagesAhead
			}
			continue
		}
		if h.Array == nil {
			continue
		}
		a := acc(h.Array)
		a.rels = append(a.rels, h)
		switch {
		case h.IndexArray != nil || h.Affine == nil:
			addReason(a, "release of an indirect reference")
		default:
			sig := Signature(h.Affine)
			if g, ok := a.groups[sig]; ok {
				if g.release == nil {
					g.release = h
				}
				if h.Imprecise {
					g.imprecise = true
				}
			}
		}
	}

	// Assemble per-array states.
	elem := func(a *lang.Array) int64 { return int64(a.ElemSize) }
	page := int64(in.tgt.PageSize)
	var out []*arrayState
	for _, arr := range arrOrder {
		a := accs[arr]
		st := &arrayState{arr: arr}
		st.wholePages, st.fpPoly = in.wholeArray(arr)

		// ⊤ causes at the array level.
		top := len(a.reasons) > 0
		topReasons := append([]string{}, a.reasons...)
		for _, sig := range a.order {
			g := a.groups[sig]
			if !g.ok {
				top = true
				topReasons = append(topReasons, g.reason)
			}
			if g.imprecise && in.ver.UsesRelease() {
				// An imprecise release fires at the group's leader, so
				// re-referenced pages are rescued back in and never
				// released again: they accumulate like unreleased
				// pages (the MGRID pathology).
				top = true
				topReasons = append(topReasons, "imprecise release placed behind the leader (re-referenced pages are rescued and retained)")
			}
		}

		if top {
			st.top = true
			st.policy = PolicyTop
			st.fpPages = st.wholePages
			st.window = st.wholePages
			st.coversWhole = true
			sort.Strings(topReasons)
			for _, r := range topReasons {
				st.note(r)
			}
			in.farTop(st, a.rels)
			out = append(out, st)
			continue
		}

		// Footprint: sum of group interval pages, capped at the whole
		// array; symbolic form keeps the group sum.
		fpPoly := Poly{}
		fpPages := int64(0)
		widthElemsTotal := int64(0)
		resolved := true
		for _, sig := range a.order {
			g := a.groups[sig]
			w := g.widthElems.AddConst(g.maxC - g.minC + 1)
			gp := w.Scale(elem(arr), page).AddConst(2)
			fpPoly = fpPoly.Add(gp)
			if v, err := w.Eval(in.env); err == nil {
				widthElemsTotal += v
				fpPages += ceilDiv(v*elem(arr), page) + 2
			} else {
				resolved = false
			}
		}
		if !resolved {
			// Unbound parameters: degrade to the whole array (and to
			// the memory limit if even that is unresolved).
			st.top = true
			st.paramGap = true
			st.policy = PolicyTop
			st.fpPoly = fpPoly
			st.fpPages = st.wholePages
			st.window = st.wholePages
			st.coversWhole = true
			st.note("bound unresolved (unbound parameters)")
			in.farTop(st, a.rels)
			out = append(out, st)
			continue
		}
		st.fpPoly = fpPoly
		st.fpPages = fpPages
		if st.wholePages >= 0 && fpPages > st.wholePages {
			st.fpPages = st.wholePages
		}
		if st.wholePages >= 0 {
			if elems, err := arr.NumElems(in.env); err == nil && widthElemsTotal >= elems {
				st.coversWhole = true
			}
		}

		// Version-specific window: each group streams, is retained, or
		// stays resident.
		if !in.ver.UsesRelease() {
			st.policy = PolicyResident
			st.window = st.fpPages
			out = append(out, st)
			continue
		}
		window := int64(0)
		anyStream, anyRetain, anyResident := false, false, false
		for _, sig := range a.order {
			g := a.groups[sig]
			w := g.widthElems.AddConst(g.maxC - g.minC + 1)
			gv, _ := w.Eval(in.env)
			gPages := ceilDiv(gv*elem(arr), page) + 2
			if st.wholePages >= 0 && gPages > st.wholePages {
				gPages = st.wholePages
			}
			switch {
			case g.release == nil:
				window += gPages
				anyResident = true
			case in.ver == VersionB && g.release.Priority > 0:
				window += gPages
				anyRetain = true
				if st.retain == nil {
					st.retain = g.release
				}
				st.note(fmt.Sprintf("release priority %d: buffered, retained until memory pressure", g.release.Priority))
			default:
				spread := ceilDiv((g.maxC-g.minC+1)*elem(arr), page) + 1
				window += spread + pagesAhead[arr] + streamSlackPages
				anyStream = true
			}
			if in.farOn() && g.release != nil && g.release.Priority >= in.prio {
				// Released pages passing the eq. 2 gate demote to the
				// far tier (whether the release issues immediately or
				// drains from the buffer under pressure).
				st.farOcc += gPages
				st.farFlow += gPages
				if st.demote == nil {
					st.demote = g.release
				}
			}
		}
		if st.wholePages >= 0 && st.farOcc > st.wholePages {
			st.farOcc = st.wholePages
		}
		if st.wholePages >= 0 && window > st.wholePages+pagesAhead[arr]+streamSlackPages {
			window = st.wholePages + pagesAhead[arr] + streamSlackPages
		}
		st.window = window
		switch {
		case anyStream && !anyRetain && !anyResident:
			st.policy = PolicyStreamed
			st.streamed = true
		case anyRetain:
			st.policy = PolicyRetained
		case anyStream:
			// Mixed: some groups stream, some stay; the carried pages
			// behave like a resident footprint.
			st.policy = PolicyResident
		default:
			st.policy = PolicyResident
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].arr.Name < out[j].arr.Name })
	return out
}

// farTop applies the two-tier ⊤ to an array state: if any release on
// the array passes the FarMinPrio gate, its whole extent may end up
// in the far tier (occupancy degrades to the whole array, possibly
// unresolved) and the demotion flow is unbounded — a rescued or
// imprecisely released page can demote again on every pass.
func (in *interp) farTop(st *arrayState, rels []*compiler.Hint) {
	if !in.farOn() {
		return
	}
	for _, h := range rels {
		if h.Priority >= in.prio {
			st.farOcc = st.wholePages
			st.farFlow = -1
			if st.demote == nil {
				st.demote = h
			}
			return
		}
	}
}
