package compiler

import (
	"fmt"
	"sort"
	"strings"

	"memhogs/internal/lang"
)

// loopNode mirrors one lang.Loop within a nest, with analysis results.
type loopNode struct {
	l        *lang.Loop
	parent   *loopNode
	children []*loopNode
	assigns  []*lang.Assign
	depth    int
	seq      int   // stable position within the nest, for deterministic keys
	trips    int64 // -1 when unknown at compile time

	volumePages int64 // pages touched by one full iteration; -1 unknown
	volumeDone  bool
}

// indirectSpec describes an a[b[i]] subscript.
type indirectSpec struct {
	idxArr *lang.Array
	idxLin *lang.Affine
}

// refInfo is one static array reference with its analysis results.
type refInfo struct {
	ref  *lang.Ref
	arr  *lang.Array
	elem int
	lin  *lang.Affine  // nil for indirect target refs
	ind  *indirectSpec // non-nil for indirect target refs
	path []*loopNode   // enclosing loops, outermost first

	temporal    []*loopNode // loops carrying (possibly misdetected) temporal reuse
	misdetected bool
	exploitable []*loopNode // temporal loops whose reuse fits in memory
	driving     *loopNode   // innermost loop that advances the reference
	group       *group

	synthetic bool // index-array read synthesized from an indirect ref
}

// group is a set of references with identical variable terms on the
// same array ("group locality"); the leading reference is prefetched
// and the trailing one released (§3.2).
type group struct {
	key     string
	refs    []*refInfo
	leader  *refInfo
	trailer *refInfo
}

// nestAnalysis is the per-nest working set.
type nestAnalysis struct {
	cc      *compileCtx
	formals []string
	root    *loopNode
	byLoop  map[*lang.Loop]*loopNode
	refs    []*refInfo
	groups  []*group
}

// compileNest analyzes one top-level loop and produces its executable
// form with directives attached.
func (cc *compileCtx) compileNest(root *lang.Loop, formals []string) (*xloop, error) {
	na := &nestAnalysis{cc: cc, formals: formals, byLoop: map[*lang.Loop]*loopNode{}}
	var err error
	na.root, err = na.buildTree(root, nil, 0)
	if err != nil {
		return nil, err
	}
	if err := na.collectRefs(na.root, nil); err != nil {
		return nil, err
	}
	na.analyzeReuse()
	na.buildGroups()
	na.analyzeLocality()
	dirs := na.placeDirectives()
	return cc.emitLoop(na, na.root, dirs)
}

func (na *nestAnalysis) buildTree(l *lang.Loop, parent *loopNode, depth int) (*loopNode, error) {
	n := &loopNode{l: l, parent: parent, depth: depth, seq: len(na.byLoop), trips: -1}
	na.byLoop[l] = n
	if lo, ok := l.Lo.TryEval(na.cc.known); ok {
		if hi, ok2 := l.Hi.TryEval(na.cc.known); ok2 {
			t := (hi-lo)/l.Step + 1
			if t < 0 {
				t = 0
			}
			n.trips = t
		}
	}
	if n.trips < 0 {
		na.cc.c.Stats.UnknownBoundLoops++
	}
	for _, s := range l.Body {
		switch st := s.(type) {
		case *lang.Loop:
			child, err := na.buildTree(st, n, depth+1)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, child)
		case *lang.Assign:
			n.assigns = append(n.assigns, st)
		case *lang.Call:
			return nil, fmt.Errorf("call inside loop nest is not supported (hoist it)")
		default:
			return nil, fmt.Errorf("unsupported statement %T in nest", s)
		}
	}
	return n, nil
}

func (na *nestAnalysis) collectRefs(n *loopNode, path []*loopNode) error {
	path = append(path, n)
	for _, a := range n.assigns {
		for _, r := range lang.StmtRefs(a) {
			lin, ind, err := na.cc.linearize(r)
			if err != nil {
				return err
			}
			p := append([]*loopNode{}, path...)
			if ind != nil {
				na.cc.c.Stats.IndirectRefs++
				// The indirect target itself.
				na.refs = append(na.refs, &refInfo{
					ref: r, arr: r.Array, elem: r.Array.ElemSize,
					ind: ind, path: p,
				})
				// The index-array read participates in the ordinary
				// affine analysis.
				na.refs = append(na.refs, &refInfo{
					ref: r, arr: ind.idxArr, elem: ind.idxArr.ElemSize,
					lin: ind.idxLin, path: p, synthetic: true,
				})
			} else {
				na.refs = append(na.refs, &refInfo{
					ref: r, arr: r.Array, elem: r.Array.ElemSize,
					lin: lin, path: p,
				})
			}
			na.cc.c.Stats.Refs++
		}
	}
	for _, ch := range n.children {
		if err := na.collectRefs(ch, path); err != nil {
			return err
		}
	}
	return nil
}

// linearize flattens a reference's subscripts into a single affine
// element offset (row-major). An indirect subscript is only allowed as
// the sole subscript of a one-dimensional array.
func (cc *compileCtx) linearize(r *lang.Ref) (*lang.Affine, *indirectSpec, error) {
	if len(r.Index) == 1 {
		if ind, ok := r.Index[0].(*lang.Indirect); ok {
			return nil, &indirectSpec{idxArr: ind.Array, idxLin: ind.Idx}, nil
		}
	}
	// Evaluate dimension extents with compile-time-known values.
	scales := make([]int64, len(r.Array.Dims))
	scale := int64(1)
	for d := len(r.Array.Dims) - 1; d >= 0; d-- {
		scales[d] = scale
		v, ok := r.Array.Dims[d].TryEval(cc.known)
		if !ok {
			return nil, nil, fmt.Errorf("array %s: dimension %d not known at compile time", r.Array.Name, d)
		}
		scale *= v
	}
	lin := &lang.Affine{}
	for d, idx := range r.Index {
		aff, ok := idx.(*lang.Affine)
		if !ok {
			return nil, nil, fmt.Errorf("array %s: indirect subscript must be the only subscript", r.Array.Name)
		}
		lin = lang.AddAffine(lin, lang.ScaleAffine(aff, scales[d]))
	}
	return lin, nil, nil
}

// analyzeReuse computes per-reference temporal reuse sets. A symbolic
// (parameter) stride makes the subscript look independent of the loop
// variable, so the analysis misdetects temporal reuse — the FFTPDE
// pathology the paper describes.
func (na *nestAnalysis) analyzeReuse() {
	for _, r := range na.refs {
		if r.ind != nil {
			// "it is not possible to reason statically about any
			// reuse that they may have."
			continue
		}
		for _, n := range r.path {
			coef, symbolic := r.lin.CoefOf(n.l.Var)
			switch {
			case symbolic && !na.cc.c.Target.Adaptive:
				// The subscript looks independent of the loop
				// variable, so the analysis misdetects temporal reuse
				// (the paper's FFTPDE pathology). Adaptive codegen
				// resolves the stride at run time instead.
				r.temporal = append(r.temporal, n)
				r.misdetected = true
				na.cc.c.Stats.MisdetectedReuse++
			case !symbolic && coef == 0:
				r.temporal = append(r.temporal, n)
			}
		}
		// Driving loop: innermost enclosing loop that advances the
		// reference, by a known non-zero coefficient or a symbolic
		// stride (which still advances at run time). A directive
		// attached further out would read the inner loop's variable
		// while it is unbound.
		for i := len(r.path) - 1; i >= 0; i-- {
			if coef, symbolic := r.lin.CoefOf(r.path[i].l.Var); coef != 0 || symbolic {
				r.driving = r.path[i]
				break
			}
		}
		if r.driving == nil {
			// Loop-invariant within the nest: attach to the innermost
			// enclosing loop; the directive fires once.
			r.driving = r.path[len(r.path)-1]
		}
	}
	for _, r := range na.refs {
		if r.ind != nil {
			// Indirect targets are driven by the innermost loop their
			// index expression depends on.
			for i := len(r.path) - 1; i >= 0; i-- {
				if r.ind.idxLin.DependsOn(r.path[i].l.Var) {
					r.driving = r.path[i]
					break
				}
			}
			if r.driving == nil {
				r.driving = r.path[len(r.path)-1]
			}
		}
	}
}

// buildGroups partitions affine references by array and variable-term
// signature; references within a group differ only in constant offset.
func (na *nestAnalysis) buildGroups() {
	byKey := map[string]*group{}
	for _, r := range na.refs {
		if r.ind != nil {
			continue
		}
		key := groupKey(r)
		g := byKey[key]
		if g == nil {
			g = &group{key: key}
			byKey[key] = g
			na.groups = append(na.groups, g)
		}
		g.refs = append(g.refs, r)
		r.group = g
	}
	for _, g := range na.groups {
		g.leader, g.trailer = g.refs[0], g.refs[0]
		for _, r := range g.refs[1:] {
			if r.lin.Const > g.leader.lin.Const {
				g.leader = r
			}
			if r.lin.Const < g.trailer.lin.Const {
				g.trailer = r
			}
		}
	}
	// Stable order for deterministic tag assignment.
	sort.Slice(na.groups, func(i, j int) bool { return na.groups[i].key < na.groups[j].key })
	na.cc.c.Stats.Groups += len(na.groups)
}

func groupKey(r *refInfo) string {
	var b strings.Builder
	b.WriteString(r.arr.Name)
	// Group locality only holds for references in the same loop
	// context: same-named variables of sibling loops must not merge.
	fmt.Fprintf(&b, "@%d", r.path[len(r.path)-1].seq)
	terms := append([]lang.Term{}, r.lin.Terms...)
	sort.Slice(terms, func(i, j int) bool { return terms[i].Var < terms[j].Var })
	for _, t := range terms {
		fmt.Fprintf(&b, "|%s*%d*%s", t.Var, t.Coef, t.CoefParam)
	}
	if r.synthetic {
		b.WriteString("|idx")
	}
	return b.String()
}

// volume computes the pages touched by one full iteration of n
// (everything beneath it), or -1 when unknown. Indirect targets are
// charged their whole array ("it is not possible to reason statically
// about reuse").
func (na *nestAnalysis) volume(n *loopNode) int64 {
	if n.volumeDone {
		return n.volumePages
	}
	n.volumeDone = true
	page := int64(na.cc.c.Target.PageSize)
	var total int64
	for _, r := range na.refs {
		// Only references strictly beneath n (n on their path).
		idx := -1
		for i, pn := range r.path {
			if pn == n {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		if r.ind != nil {
			elems, err := r.arr.NumElems(na.cc.known)
			if err != nil {
				n.volumePages = -1
				return -1
			}
			total += (elems*int64(r.elem) + page - 1) / page
			continue
		}
		bytes := int64(r.elem)
		for _, inner := range r.path[idx+1:] {
			coef, symbolic := r.lin.CoefOf(inner.l.Var)
			if symbolic {
				n.volumePages = -1
				return -1
			}
			if coef == 0 {
				continue
			}
			if inner.trips < 0 {
				n.volumePages = -1
				return -1
			}
			if inner.trips > 0 {
				span := (inner.trips - 1) * abs64(coef) * int64(r.elem)
				bytes += span
			}
		}
		total += (bytes + page - 1) / page
	}
	n.volumePages = total
	return total
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// analyzeLocality decides which temporal reuses are exploitable: the
// volume of data accessed between reuses (one iteration of the
// carrying loop) must fit in the memory the compiler assumes.
// Unknown volumes are treated as "does not fit" — "it is preferable to
// assume that only the smallest working set will fit in memory" (§2.4).
func (na *nestAnalysis) analyzeLocality() {
	effMem := int64(float64(na.cc.c.Target.MemoryPages) * na.cc.c.Target.EffMemFrac)
	for _, r := range na.refs {
		for _, ln := range r.temporal {
			v := na.volume(ln)
			if v >= 0 && v <= effMem {
				r.exploitable = append(r.exploitable, ln)
			}
		}
	}
}

// priority implements equation (2): Σ 2^depth over the loops carrying
// temporal reuse (including misdetected ones), outermost depth 0.
func priority(r *refInfo) int {
	p := 0
	for _, ln := range r.temporal {
		d := ln.depth
		if d > 20 {
			d = 20
		}
		p += 1 << uint(d)
	}
	return p
}
