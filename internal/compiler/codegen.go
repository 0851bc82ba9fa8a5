package compiler

import (
	"fmt"
	"math"

	"memhogs/internal/lang"
)

// xstmt is an executable statement node.
type xstmt interface{ isX() }

// xloop is an executable loop with hint directives attached. When
// strip is non-nil the loop runs in strip-mined mode: the interpreter
// jumps from page crossing to page crossing instead of iterating
// element by element (the effect of the compiler's loop splitting).
type xloop struct {
	v      string
	lo, hi lang.Scalar
	step   int64
	body   []xstmt
	dirs   []*xdir
	strip  *stripPlan

	// Slot-resolved forms, filled by finalize. streams lists the
	// references that open a stream at loop entry: the loop's own
	// directives and the sites of its own assignments, each holding
	// its index here in xref.stream. affine indexes the affine ones
	// among them, the only streams span reads. A quiet loop is
	// innermost and owns an indirect reference; plan indexes its
	// quiet plan in Image.plans, and is -1 for any other loop.
	vSlot    int32
	clo, chi cscalar
	streams  []*xref
	affine   []int32
	plan     int32
}

func (*xloop) isX() {}

// xassign is an executable compute statement: touch its sites, then
// account its cost.
type xassign struct {
	cost  float64
	sites []*accessSite
}

func (*xassign) isX() {}

// xcall binds formals and runs the (single) compiled body of a proc.
type xcall struct {
	proc *lang.Proc
	args []lang.Scalar
	body []xstmt

	// Slot-resolved forms, filled by finalize.
	cargs       []cscalar
	formalSlots []int32
}

func (*xcall) isX() {}

// xref is one address expression the executor follows: an affine
// element offset or the a[b[i]] form, shared by access sites and
// directives.
type xref struct {
	arr  *lang.Array
	lin  *lang.Affine  // nil for indirect
	ind  *indirectSpec // the a[b[i]] form
	elem int
	// itersAhead is an indirect prefetch's look-ahead: its index
	// subscript is read with the variable of the loop the directive is
	// attached to that many units ahead.
	itersAhead int64

	// Filled by finalize: clin mirrors lin and cidx mirrors
	// ind.idxLin, slot-resolved; arrID and idxID are the dense IDs
	// (positions in Prog.Arrays) of arr and ind.idxArr. stream indexes
	// the owning loop's streams, which hold a byte position for an
	// affine reference and an index-array element for an indirect one;
	// -1 for assignments outside every loop, evaluated where they run.
	clin         caffine
	cidx         caffine
	arrID, idxID int32
	stream       int32
}

// accessSite is one dynamic memory access point.
type accessSite struct {
	id int
	xref
	write bool
}

// dirKind distinguishes prefetch from release directives.
type dirKind int8

// Directive kinds.
const (
	dirPf dirKind = iota
	dirRel
)

// xdir is a compiler-inserted hint directive. It observes the page of
// its address expression at each iteration of the loop it is attached
// to and fires when the page changes (the strip-mined form of the
// inserted call). Release directives pass the priority of equation (2)
// and the static tag (request identifier).
type xdir struct {
	id   int
	tag  int
	kind dirKind
	prio int

	pagesAhead int64 // software-pipelining distance for affine prefetches

	gates []string // loop vars that must all be at their first iteration

	xref

	// Slot-resolved forms, filled by finalize.
	gateSlots []int32
}

// stripPlan marks an innermost all-affine loop for strip-mode
// execution; cost is the body's cost per iteration.
type stripPlan struct {
	cost float64
}

// placeDirectives decides, per group, the prefetch (leader) and
// release (trailer) directives, and per indirect reference a
// per-iteration prefetch. It returns directives keyed by the loop they
// attach to.
func (na *nestAnalysis) placeDirectives() map[*loopNode][]*xdir {
	out := map[*loopNode][]*xdir{}
	tgt := na.cc.c.Target
	attach := func(n *loopNode, d *xdir) {
		out[n] = append(out[n], d)
	}
	for _, g := range na.groups {
		if tgt.Prefetch {
			r := g.leader
			d := &xdir{
				id:         na.cc.c.newDir(),
				tag:        na.cc.c.newTag(),
				kind:       dirPf,
				pagesAhead: na.prefetchPages(r),
				gates:      gateVars(r),
				xref:       xref{arr: r.arr, lin: r.lin, elem: r.elem},
			}
			na.cc.c.Stats.PrefetchDirs++
			attach(r.driving, d)
			na.cc.recordHint(d, r, false)
		}
		if tgt.Release {
			r := g.trailer
			// Conservative (§2.3.2) policy: skip releases for
			// references whose reuse the compiler expects to exploit.
			// The paper's evaluated policy is aggressive: always
			// insert, encoding the reuse in the priority.
			if !tgt.Aggressive && len(r.exploitable) > 0 {
				continue
			}
			// When the loop bounds separating the group's leading and
			// trailing references are unknown, the compiler cannot
			// place the release precisely ("the loop bounds change
			// dynamically on different calls to the same procedures,
			// making it impossible to release memory optimally"): it
			// falls back to releasing behind the *leading* reference,
			// which frees pages the trailing references still need —
			// the MGRID rescue pathology of Figure 9.
			imprecise := false
			if g.leader != g.trailer && pathHasUnknownTrips(r) && !tgt.Adaptive {
				r = g.leader
				imprecise = true
				na.cc.c.Stats.ImpreciseReleases++
			}
			prio := priority(r)
			if prio == 0 {
				na.cc.c.Stats.ZeroPrioReleases++
			} else {
				na.cc.c.Stats.ReusePrioReleases++
			}
			d := &xdir{
				id:   na.cc.c.newDir(),
				tag:  na.cc.c.newTag(),
				kind: dirRel,
				prio: prio,
				xref: xref{arr: r.arr, lin: r.lin, elem: r.elem},
			}
			na.cc.c.Stats.ReleaseDirs++
			attach(r.driving, d)
			na.cc.recordHint(d, r, imprecise)
		}
	}
	if tgt.Prefetch {
		seen := map[string]bool{}
		for _, r := range na.refs {
			if r.ind == nil {
				continue
			}
			// Identical indirect accesses (e.g. the read and write of
			// rank[key[i]]) need only one prefetch stream.
			key := fmt.Sprintf("%s[%s[%s]]@%d", r.arr.Name, r.ind.idxArr.Name,
				lang.FormatAffine(r.ind.idxLin), r.path[len(r.path)-1].seq)
			if seen[key] {
				continue
			}
			seen[key] = true
			// "While it is possible to issue prefetches for indirect
			// references, it is not possible to reason statically
			// about any reuse" — prefetch every iteration, never
			// release.
			d := &xdir{
				id:   na.cc.c.newDir(),
				tag:  na.cc.c.newTag(),
				kind: dirPf,
				xref: xref{arr: r.arr, ind: r.ind, elem: r.elem, itersAhead: na.iterDistance(r)},
			}
			na.cc.c.Stats.PrefetchDirs++
			attach(r.driving, d)
			na.cc.recordHint(d, r, false)
		}
	}
	return out
}

// pathHasUnknownTrips reports whether any loop enclosing the reference
// has bounds the compiler cannot evaluate.
func pathHasUnknownTrips(r *refInfo) bool {
	for _, n := range r.path {
		if n.trips < 0 {
			return true
		}
	}
	return false
}

// gateVars returns the loop variables of exploitable temporal loops
// strictly enclosing the driving loop: the prefetch only runs while
// they are all at their first iteration (the effect of peeling the
// first iteration of those loops).
func gateVars(r *refInfo) []string {
	var gates []string
	for _, ln := range r.exploitable {
		if ln.depth < r.driving.depth {
			gates = append(gates, ln.l.Var)
		}
	}
	return gates
}

// estIterNS estimates the user-CPU cost of one iteration of n's body
// in nanoseconds, assuming UnknownTrip for unevaluable bounds.
func (na *nestAnalysis) estIterNS(n *loopNode) float64 {
	tgt := na.cc.c.Target
	cost := 0.0
	for _, a := range n.assigns {
		cost += assignCost(a, tgt.OpCostNS)
	}
	for _, ch := range n.children {
		trips := ch.trips
		if trips < 0 {
			trips = tgt.UnknownTrip
		}
		cost += float64(trips) * na.estIterNS(ch)
	}
	if cost <= 0 {
		cost = tgt.OpCostNS
	}
	return cost
}

func assignCost(a *lang.Assign, opCost float64) float64 {
	if a.CostNS > 0 {
		return a.CostNS
	}
	ops := lang.Ops(a.RHS)
	if ops < 1 {
		ops = 1
	}
	return float64(ops) * opCost
}

// prefetchPages computes the software-pipelining distance in pages:
// enough pages ahead that the fault latency is hidden behind the
// computation on one page.
func (na *nestAnalysis) prefetchPages(r *refInfo) int64 {
	tgt := na.cc.c.Target
	iterNS := na.estIterNS(r.driving)
	coef, symbolic := r.lin.CoefOf(r.driving.l.Var)
	itersPerPage := int64(1)
	if !symbolic && coef != 0 {
		ipp := int64(tgt.PageSize) / (abs64(coef) * int64(r.elem))
		if ipp > 1 {
			itersPerPage = ipp
		}
	}
	pageNS := iterNS * float64(itersPerPage)
	if pageNS <= 0 {
		pageNS = 1
	}
	pd := int64(math.Ceil(float64(tgt.FaultLatency) / pageNS))
	if pd < 1 {
		pd = 1
	}
	if pd > int64(tgt.MaxPrefetchPages) {
		pd = int64(tgt.MaxPrefetchPages)
	}
	return pd
}

// iterDistance computes the look-ahead in iterations for indirect
// prefetches.
func (na *nestAnalysis) iterDistance(r *refInfo) int64 {
	tgt := na.cc.c.Target
	iterNS := na.estIterNS(r.driving)
	if iterNS <= 0 {
		iterNS = 1
	}
	d := int64(math.Ceil(float64(tgt.FaultLatency) / iterNS))
	if d < 1 {
		d = 1
	}
	if d > 1<<16 {
		d = 1 << 16
	}
	return d
}

func (c *Compiled) newTag() int  { c.numTags++; return c.numTags - 1 }
func (c *Compiled) newDir() int  { c.numDirs++; return c.numDirs - 1 }
func (c *Compiled) newSite() int { c.numSites++; return c.numSites - 1 }

// emitLoop builds the executable loop tree, attaching directives and
// choosing strip mode for innermost all-affine loops.
func (cc *compileCtx) emitLoop(na *nestAnalysis, n *loopNode, dirs map[*loopNode][]*xdir) (*xloop, error) {
	xl := &xloop{
		v:    n.l.Var,
		lo:   n.l.Lo,
		hi:   n.l.Hi,
		step: n.l.Step,
		dirs: dirs[n],
	}
	// Preserve source statement order.
	for _, s := range n.l.Body {
		switch st := s.(type) {
		case *lang.Loop:
			child, err := cc.emitLoop(na, na.byLoop[st], dirs)
			if err != nil {
				return nil, err
			}
			xl.body = append(xl.body, child)
		case *lang.Assign:
			xa, err := cc.compileAssign(st, na)
			if err != nil {
				return nil, err
			}
			xl.body = append(xl.body, xa)
		default:
			return nil, fmt.Errorf("unsupported statement %T in loop", s)
		}
	}
	// Strip mode: innermost (so the body is all assignments), with
	// sites and no indirect reference.
	if len(n.children) == 0 {
		plan, sites, eligible := &stripPlan{}, 0, true
		for _, s := range xl.body {
			xa := s.(*xassign)
			plan.cost += xa.cost
			sites += len(xa.sites)
			for _, site := range xa.sites {
				eligible = eligible && site.ind == nil
			}
		}
		for _, d := range xl.dirs {
			eligible = eligible && d.ind == nil
		}
		if eligible && sites > 0 {
			xl.strip = plan
		}
	}
	return xl, nil
}

// compileAssign builds the executable form of an assignment. The
// statement's references become access sites; an indirect reference
// contributes two sites (the index-array read, then the target).
func (cc *compileCtx) compileAssign(a *lang.Assign, _ *nestAnalysis) (*xassign, error) {
	xa := &xassign{cost: assignCost(a, cc.c.Target.OpCostNS)}
	for _, r := range lang.StmtRefs(a) {
		lin, ind, err := cc.linearize(r)
		if err != nil {
			return nil, err
		}
		if ind != nil {
			xa.sites = append(xa.sites,
				&accessSite{id: cc.c.newSite(), xref: xref{arr: ind.idxArr, lin: ind.idxLin, elem: ind.idxArr.ElemSize}},
				&accessSite{id: cc.c.newSite(), xref: xref{arr: r.Array, ind: ind, elem: r.Array.ElemSize}, write: r.Write})
		} else {
			xa.sites = append(xa.sites,
				&accessSite{id: cc.c.newSite(), xref: xref{arr: r.Array, lin: lin, elem: r.Array.ElemSize}, write: r.Write})
		}
	}
	return xa, nil
}
