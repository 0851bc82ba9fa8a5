package compiler

import (
	"fmt"

	"memhogs/internal/lang"
)

// Hints is the interface the compiled program runs against — the
// run-time layer (package rt) implements it on top of the kernel.
// Pages are virtual page numbers within the owning process's address
// space.
type Hints interface {
	// Touch references a page (taking faults as needed).
	Touch(page int64, write bool)
	// Work accounts ns nanoseconds of user computation.
	Work(ns float64)
	// Prefetch is a compiler-inserted prefetch call for one or more
	// pages (more than one only for the software-pipelining prologue).
	Prefetch(tag int, pages []int64)
	// Release is a compiler-inserted release call: the page currently
	// holding the trailing reference, the equation-(2) priority, and
	// the static request identifier.
	Release(tag int, prio int, page int64)
}

// Image is a compiled program bound to parameter values, with arrays
// laid out page-aligned in a single address space.
type Image struct {
	C   *Compiled
	Env lang.Env

	bases      []int64 // byte offsets, by array ID
	lens       []int64 // element counts, by array ID
	TotalPages int
	DataBytes  int64
	pageShift  uint

	// Initial slot vectors (params and known values resolved to the
	// compiler's slot table); each Run clones them.
	initVals  []int64
	initBound []bool

	plans [][]quietOp // by xloop.plan
}

// quietOp is one step of a quiet loop's iteration, resolved against an
// Image: a work charge when stream is -1, and otherwise the observation
// of an indirect reference, a directive when dir is non-nil and an
// access site when it is nil. An observation reads its index stream
// and carries what resolving its target needs: the index array's ID,
// length and values, the target array's extent, base and element size,
// and its dirLast or siteLast slot.
type quietOp struct {
	stream int32
	last   int32
	idxID  int32
	write  bool
	dir    *xdir
	cost   float64
	n, m   int64
	base   int64
	elem   int64
	data   func(int64) int64
}

// Bind lays out the program's arrays for the given parameter values
// and validates that every indirection index array has a data
// generator attached.
func (c *Compiled) Bind(params map[string]int64) (*Image, error) {
	env := lang.Env{}
	for k, v := range c.Prog.Known {
		env[k] = v
	}
	for k, v := range params {
		env[k] = v
	}
	for _, p := range c.Prog.Params {
		if _, ok := env[p]; !ok {
			return nil, fmt.Errorf("compiler: param %s not bound", p)
		}
	}
	shift := uint(0)
	for 1<<shift != c.Target.PageSize {
		shift++
		if shift > 30 {
			return nil, fmt.Errorf("compiler: page size %d not a power of two", c.Target.PageSize)
		}
	}
	img := &Image{
		C: c, Env: env,
		bases:     make([]int64, len(c.Prog.Arrays)),
		lens:      make([]int64, len(c.Prog.Arrays)),
		pageShift: shift,
	}
	ps := int64(c.Target.PageSize)
	var off int64
	for id, a := range c.Prog.Arrays {
		elems, err := a.NumElems(env)
		if err != nil {
			return nil, err
		}
		img.bases[id] = off
		img.lens[id] = elems
		bytes := elems * int64(a.ElemSize)
		img.DataBytes += bytes
		off += (bytes + ps - 1) / ps * ps
	}
	img.TotalPages = int(off / ps)
	if img.TotalPages == 0 {
		img.TotalPages = 1
	}
	img.initVals = make([]int64, len(c.slotNames))
	img.initBound = make([]bool, len(c.slotNames))
	for i, name := range c.slotNames {
		if v, ok := env[name]; ok {
			img.initVals[i] = v
			img.initBound[i] = true
		}
	}
	// Every indirection array must be able to produce values.
	for _, x := range c.indirect {
		if x.ind.idxArr.Data == nil {
			return nil, fmt.Errorf("compiler: index array %s has no data generator", x.ind.idxArr.Name)
		}
	}
	img.plans = make([][]quietOp, len(c.quietLoops))
	for i, l := range c.quietLoops {
		img.plans[i] = img.quietPlan(l)
	}
	return img, nil
}

// quietPlan resolves quiet loop l's plan: its indirect directives, then
// each assignment's indirect sites followed by the assignment's work,
// the order in which a full iteration makes those calls.
func (img *Image) quietPlan(l *xloop) []quietOp {
	var plan []quietOp
	obs := func(x *xref, d *xdir, last int, write bool) quietOp {
		return quietOp{
			stream: x.stream, last: int32(last), idxID: x.idxID, write: write, dir: d,
			n: img.lens[x.idxID], m: img.lens[x.arrID],
			base: img.bases[x.arrID], elem: int64(x.elem), data: x.ind.idxArr.Data,
		}
	}
	for _, d := range l.dirs {
		if d.ind != nil {
			plan = append(plan, obs(&d.xref, d, d.id, false))
		}
	}
	for _, st := range l.body {
		a := st.(*xassign)
		for _, site := range a.sites {
			if site.ind != nil {
				plan = append(plan, obs(&site.xref, nil, site.id, site.write))
			}
		}
		plan = append(plan, quietOp{stream: -1, cost: a.cost})
	}
	return plan
}

// PageRange returns the [first, last] virtual pages of an array, and
// the empty range (0, -1) for an array the program does not declare.
func (img *Image) PageRange(a *lang.Array) (int64, int64) {
	id := img.C.arrayID(a)
	if id < 0 {
		return 0, -1
	}
	return img.pageRange(id, a.ElemSize)
}

// pageRange is PageRange by array ID, for elements of elem bytes.
func (img *Image) pageRange(id int32, elem int) (int64, int64) {
	base := img.bases[id]
	end := base + img.lens[id]*int64(elem) - 1
	return base >> img.pageShift, end >> img.pageShift
}

// byteOf is the byte address of element elem of x's target array.
func (img *Image) byteOf(x *xref, elem int64) int64 {
	return img.bases[x.arrID] + elem*int64(x.elem)
}

// Run executes the bound program against the run-time layer.
func (img *Image) Run(h Hints) error {
	return img.newRunner(h).stmts(img.C.Main)
}

func (img *Image) newRunner(h Hints) *runner {
	r := &runner{
		img:      img,
		h:        h,
		vals:     append([]int64(nil), img.initVals...),
		bound:    append([]bool(nil), img.initBound...),
		isFirst:  make([]bool, len(img.C.slotNames)),
		dirLast:  make([]int64, img.C.numDirs),
		siteLast: make([]int64, img.C.numSites),
		memo:     indexMemo{arr: -1},
	}
	for i := range r.dirLast {
		r.dirLast[i] = -1
	}
	for i := range r.siteLast {
		r.siteLast[i] = -1
	}
	return r
}

// runner is the per-run interpreter state. Scalars live in flat
// slot-indexed vectors (see slots.go): vals/bound mirror what the old
// lang.Env map held (bound[s] false = name absent), isFirst tracks the
// first-iteration flag per loop variable for prefetch gating.
//
// streams is the run-wide stack of address and index streams, one
// frame per active loop; frame is the first stream of the innermost
// one. memo holds the index element read last.
type runner struct {
	img      *Image
	h        Hints
	vals     []int64
	bound    []bool
	isFirst  []bool
	dirLast  []int64
	siteLast []int64
	scratch  []int64
	streams  []stream
	frame    int
	memo     indexMemo
}

// stream is one reference followed through a loop: its position at the
// current iteration and its advance per iteration. An affine
// reference's position is a byte address; an indirect reference's is
// the element its index subscript selects in the index array.
type stream struct {
	pos   int64
	delta int64
}

func (r *runner) stmts(list []xstmt) error {
	for _, s := range list {
		var err error
		switch x := s.(type) {
		case *xloop:
			err = r.loop(x)
		case *xassign:
			err = r.assign(x)
		case *xcall:
			err = r.call(x)
		default:
			err = fmt.Errorf("compiler: unknown executable node %T", s)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) call(c *xcall) error {
	type saved struct {
		val int64
		had bool
	}
	olds := make([]saved, len(c.formalSlots))
	for i, s := range c.formalSlots {
		v, err := r.evalScalar(&c.cargs[i])
		if err != nil {
			return fmt.Errorf("call %s: %w", c.proc.Name, err)
		}
		olds[i] = saved{val: r.vals[s], had: r.bound[s]}
		r.vals[s] = v
		r.bound[s] = true
	}
	err := r.stmts(c.body)
	for i, s := range c.formalSlots {
		r.vals[s] = olds[i].val
		r.bound[s] = olds[i].had
	}
	return err
}

// loop is the one loop executor. At entry every reference of the loop
// opens a stream; each step then reads affine pages and indirect
// references' index elements from the streams, and advances them all
// by its iteration count. A strip-mode loop steps from page crossing
// to page crossing. Any other loop steps one iteration at a time, and
// a quiet loop runs the iterations up to its next affine page crossing
// as one quiet run.
func (r *runner) loop(l *xloop) error {
	lo, err := r.evalScalar(&l.clo)
	if err != nil {
		return err
	}
	hi, err := r.evalScalar(&l.chi)
	if err != nil {
		return err
	}
	if lo > hi {
		return nil
	}
	s := l.vSlot
	savedVal, had, savedFirst := r.vals[s], r.bound[s], r.isFirst[s]
	outer, base := r.frame, len(r.streams)
	defer func() {
		r.vals[s], r.bound[s], r.isFirst[s] = savedVal, had, savedFirst
		r.streams, r.frame = r.streams[:base], outer
	}()

	r.vals[s], r.bound[s], r.isFirst[s] = lo, true, true
	for _, x := range l.streams {
		t, err := r.open(x, s, l.step)
		if err != nil {
			return err
		}
		r.streams = append(r.streams, t)
	}
	r.frame = base
	strip := l.strip != nil
	if strip {
		// Strip-mode sites are observed afresh on every loop entry.
		for _, st := range l.body {
			for _, site := range st.(*xassign).sites {
				r.siteLast[site.id] = -1
			}
		}
	}
	iters := (hi-lo)/l.step + 1
	quietLeft := int64(0) // iterations before the next affine page crossing
	for it, steps := int64(0), int64(1); it < iters; it += steps {
		switch {
		case quietLeft > 0:
			r.quietRun(l, quietLeft)
			steps, quietLeft = quietLeft, 0
		case strip:
			// A strip step touches its sites before firing the
			// directives and charges the whole step's work at once.
			for _, st := range l.body {
				if err = r.touchAll(st.(*xassign).sites); err != nil {
					return err
				}
			}
			if err = r.fireAll(l.dirs); err != nil {
				return err
			}
			steps = r.span(l, iters-it)
			r.h.Work(l.strip.cost * float64(steps))
		default:
			// A full iteration fires the directives before running
			// the body.
			steps = 1
			if err = r.fireAll(l.dirs); err == nil {
				err = r.stmts(l.body)
			}
			if l.plan >= 0 {
				quietLeft = r.span(l, iters-it) - 1
			}
		}
		if err != nil {
			return err
		}
		for i := base; i < len(r.streams); i++ {
			r.streams[i].pos += r.streams[i].delta * steps
		}
		r.vals[s] += steps * l.step
		// After the first step the loop is no longer at its first
		// iteration (gating for peeled prefetches).
		r.isFirst[s] = false
	}
	return nil
}

// quietRun runs the next n iterations of quiet loop l, on all of which
// every affine stream stays on the page the last full iteration
// observed. An affine observation would find its page already in
// dirLast or siteLast and make no call, so each iteration walks only
// l's plan: it fires the indirect directives, touches the indirect
// sites and charges every assignment's work, which are the ordered
// calls of a full iteration. Iteration k of the run reads each index
// stream in place, at pos + k·delta, so no stream moves here; the
// caller then advances every stream by n.
//
//simvet:hot
func (r *runner) quietRun(l *xloop, n int64) {
	plan := r.img.plans[l.plan]
	streams := r.streams[r.frame:]
	shift := r.img.pageShift
	h, dirLast, siteLast, memo := r.h, r.dirLast, r.siteLast, r.memo
	for k := int64(0); k < n; k++ {
		for i := range plan {
			op := &plan[i]
			if op.stream < 0 {
				h.Work(op.cost)
				continue
			}
			t := &streams[op.stream]
			v := memo.target(op.idxID, op.data, t.pos+k*t.delta, op.n, op.m)
			if v < 0 {
				continue
			}
			page := (op.base + v*op.elem) >> shift
			if op.dir != nil {
				if last := dirLast[op.last]; page != last {
					dirLast[op.last] = page
					r.issue(op.dir, page, last < 0)
				}
			} else if page != siteLast[op.last] {
				siteLast[op.last] = page
				h.Touch(page, op.write)
			}
		}
	}
	r.memo = memo
}

// span returns how many iterations, at most rest, the current loop l
// can advance before any of its affine streams crosses into another
// page.
//
//simvet:hot
func (r *runner) span(l *xloop, rest int64) int64 {
	ps := int64(r.img.C.Target.PageSize)
	steps := rest
	for _, i := range l.affine {
		t := &r.streams[r.frame+int(i)]
		if t.delta == 0 {
			continue
		}
		var n int64
		off := t.pos & (ps - 1)
		if t.delta > 0 {
			n = (ps - off + t.delta - 1) / t.delta
		} else {
			n = (off - t.delta) / -t.delta
		}
		if n < 1 {
			n = 1
		}
		if n < steps {
			steps = n
		}
	}
	return steps
}

// open starts x's stream at the first iteration of the loop over slot
// s. Every slot x reads other than s keeps its entry value for the
// whole loop instance, so the position advances by a constant delta.
// An indirect reference's stream starts already shifted by its
// look-ahead; an index subscript that cannot be evaluated opens at
// element -1 with no advance, which has no target on every iteration,
// as per-element evaluation would find.
func (r *runner) open(x *xref, s int32, step int64) (stream, error) {
	if x.ind != nil {
		idx, err := r.evalAffine(&x.cidx)
		if err != nil {
			return stream{pos: -1}, nil
		}
		c := r.coefVal(&x.cidx, s)
		return stream{pos: idx + c*x.itersAhead, delta: c * step}, nil
	}
	e, err := r.evalAffine(&x.clin)
	if err != nil {
		return stream{}, err
	}
	return stream{
		pos:   r.img.byteOf(x, e),
		delta: r.coefVal(&x.clin, s) * step * int64(x.elem),
	}, nil
}

// coefVal evaluates the per-iteration coefficient of slot v in lin: the
// sum of every term on v, each possibly scaled by a symbolic stride. An
// unbound stride parameter contributes zero, as the map lookup used to.
func (r *runner) coefVal(lin *caffine, v int32) int64 {
	var sum int64
	for i := range lin.terms {
		t := &lin.terms[i]
		if t.slot != v {
			continue
		}
		c := t.coef
		if t.coefSlot >= 0 {
			if !r.bound[t.coefSlot] {
				continue
			}
			c *= r.vals[t.coefSlot]
		}
		sum += c
	}
	return sum
}

// page returns the page x references at the current iteration: from its
// stream, or by evaluating the subscript of an assignment outside every
// loop. ok is false for an indirect reference with no target.
//
//simvet:hot
func (r *runner) page(x *xref) (page int64, ok bool, err error) {
	var elem int64
	if x.ind == nil {
		if x.stream >= 0 {
			return r.streams[r.frame+int(x.stream)].pos >> r.img.pageShift, true, nil
		}
		if elem, err = r.evalAffine(&x.clin); err != nil {
			return 0, false, err
		}
	} else {
		idx := int64(-1) // no target
		if x.stream >= 0 {
			idx = r.streams[r.frame+int(x.stream)].pos
		} else if v, err := r.evalAffine(&x.cidx); err == nil {
			idx = v
		}
		if elem = r.memo.target(x.idxID, x.ind.idxArr.Data, idx, r.img.lens[x.idxID], r.img.lens[x.arrID]); elem < 0 {
			return 0, false, nil
		}
	}
	return r.img.byteOf(x, elem) >> r.img.pageShift, true, nil
}

// indexMemo is the index element read last: element idx of the index
// array with ID arr holds v. arr is -1 before the first read.
type indexMemo struct {
	arr    int32
	idx, v int64
}

// target resolves the a[b[i]] target element for element idx of index
// array b, whose ID is arr, n elements long with values from data, in
// an array a of m elements; it returns -1 for no target. A negative
// idx has no target; one past b's end reads its last element (a
// look-ahead clamped to the array). An index value outside a's extent
// wraps into it. data is a pure function, so a read of the element the
// memo holds reuses its value.
//
//simvet:hot
func (mo *indexMemo) target(arr int32, data func(int64) int64, idx, n, m int64) int64 {
	idx = min(idx, n-1) // -1 when b is empty
	if idx < 0 || m == 0 {
		return -1
	}
	if idx != mo.idx || arr != mo.arr {
		mo.arr, mo.idx, mo.v = arr, idx, data(idx)
	}
	v := mo.v
	if uint64(v) >= uint64(m) { // v < 0 or v >= m
		v %= m
		if v < 0 {
			v += m
		}
	}
	return v
}

// fire observes one directive at the current iteration and issues its
// hint when the page changed.
//
//simvet:hot
func (r *runner) fire(d *xdir) error {
	page, ok, err := r.page(&d.xref)
	if !ok {
		return err
	}
	if page == r.dirLast[d.id] {
		return nil
	}
	firstObs := r.dirLast[d.id] < 0
	r.dirLast[d.id] = page
	r.issue(d, page, firstObs)
	return nil
}

// touch observes one access site and references its page when it
// changed.
//
//simvet:hot
func (r *runner) touch(s *accessSite) error {
	page, ok, err := r.page(&s.xref)
	if !ok {
		return err
	}
	if page != r.siteLast[s.id] {
		r.siteLast[s.id] = page
		r.h.Touch(page, s.write)
	}
	return nil
}

// fireAll fires dirs in order.
//
//simvet:hot
func (r *runner) fireAll(dirs []*xdir) error {
	for _, d := range dirs {
		if err := r.fire(d); err != nil {
			return err
		}
	}
	return nil
}

// touchAll touches sites in order.
//
//simvet:hot
func (r *runner) touchAll(sites []*accessSite) error {
	for _, s := range sites {
		if err := r.touch(s); err != nil {
			return err
		}
	}
	return nil
}

// issue performs the hint call for a directive observation.
func (r *runner) issue(d *xdir, page int64, firstObs bool) {
	if d.kind == dirRel {
		r.h.Release(d.tag, d.prio, page)
		return
	}
	for _, g := range d.gateSlots {
		if !r.isFirst[g] {
			return
		}
	}
	if d.ind != nil {
		r.scratch = append(r.scratch[:0], page)
		r.h.Prefetch(d.tag, r.scratch)
		return
	}
	lo, hi := r.img.pageRange(d.arrID, d.elem)
	var from, to int64
	if firstObs {
		from, to = page, page+d.pagesAhead
	} else {
		from, to = page+d.pagesAhead, page+d.pagesAhead
	}
	if from < lo {
		from = lo
	}
	if to > hi {
		to = hi
	}
	if from > to {
		return
	}
	r.scratch = r.scratch[:0]
	for p := from; p <= to; p++ {
		r.scratch = append(r.scratch, p)
	}
	r.h.Prefetch(d.tag, r.scratch)
}

func (r *runner) assign(a *xassign) error {
	if err := r.touchAll(a.sites); err != nil {
		return err
	}
	r.h.Work(a.cost)
	return nil
}
