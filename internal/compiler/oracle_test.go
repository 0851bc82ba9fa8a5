package compiler

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"memhogs/internal/kernel"
	"memhogs/internal/lang"
	"memhogs/internal/sim"
	"memhogs/internal/workload"
)

// oracle is the element-wise reference interpreter: it runs every loop
// one iteration at a time and evaluates every subscript afresh on every
// iteration, ignoring streams, strip plans and array IDs. It shares the
// runner's slot vectors, scalar evaluation and hint emission, which are
// not what it checks.
type oracle struct {
	*runner
	lens map[*lang.Array]int64 // element counts, from the declarations
}

func runOracle(img *Image, h Hints) error {
	o := oracle{img.newRunner(h), map[*lang.Array]int64{}}
	for _, a := range img.C.Prog.Arrays {
		n, err := a.NumElems(img.Env)
		if err != nil {
			return err
		}
		o.lens[a] = n
	}
	return o.stmts(img.C.Main)
}

func (o oracle) stmts(list []xstmt) error {
	for _, s := range list {
		var err error
		switch x := s.(type) {
		case *xloop:
			err = o.loop(x)
		case *xassign:
			err = o.assign(x)
		case *xcall:
			err = o.call(x)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (o oracle) call(c *xcall) error {
	vals := make([]int64, len(c.formalSlots))
	had := make([]bool, len(c.formalSlots))
	for i, s := range c.formalSlots {
		v, err := o.evalScalar(&c.cargs[i])
		if err != nil {
			return err
		}
		vals[i], had[i] = o.vals[s], o.bound[s]
		o.vals[s], o.bound[s] = v, true
	}
	err := o.stmts(c.body)
	for i, s := range c.formalSlots {
		o.vals[s], o.bound[s] = vals[i], had[i]
	}
	return err
}

func (o oracle) loop(l *xloop) error {
	lo, err := o.evalScalar(&l.clo)
	if err != nil {
		return err
	}
	hi, err := o.evalScalar(&l.chi)
	if err != nil {
		return err
	}
	s := l.vSlot
	val, had, first := o.vals[s], o.bound[s], o.isFirst[s]
	defer func() { o.vals[s], o.bound[s], o.isFirst[s] = val, had, first }()
	for v := lo; v <= hi; v += l.step {
		o.vals[s], o.bound[s], o.isFirst[s] = v, true, v == lo
		for _, d := range l.dirs {
			page, ok, err := o.evalPage(&d.xref, s, d.itersAhead)
			if err != nil {
				return err
			}
			if ok && page != o.dirLast[d.id] {
				firstObs := o.dirLast[d.id] < 0
				o.dirLast[d.id] = page
				o.issue(d, page, firstObs)
			}
		}
		if err := o.stmts(l.body); err != nil {
			return err
		}
	}
	return nil
}

func (o oracle) assign(a *xassign) error {
	for _, s := range a.sites {
		page, ok, err := o.evalPage(&s.xref, 0, 0)
		if err != nil {
			return err
		}
		if ok && page != o.siteLast[s.id] {
			o.siteLast[s.id] = page
			o.h.Touch(page, s.write)
		}
	}
	o.h.Work(a.cost)
	return nil
}

// evalPage evaluates a reference's page from its subscript at the
// current iteration. An indirect reference reads its index subscript
// with the loop variable in slot shifted ahead by shift.
func (o oracle) evalPage(x *xref, slot int32, shift int64) (int64, bool, error) {
	var elem int64
	if x.ind != nil {
		old := o.vals[slot]
		o.vals[slot] = old + shift
		idx, err := o.evalAffine(&x.cidx)
		o.vals[slot] = old
		n, m := o.lens[x.ind.idxArr], o.lens[x.arr]
		if err != nil || idx < 0 || n == 0 || m == 0 {
			return 0, false, nil
		}
		elem = x.ind.idxArr.Data(min(idx, n-1)) % m
		if elem < 0 {
			elem += m
		}
	} else {
		e, err := o.evalAffine(&x.clin)
		if err != nil {
			return 0, false, err
		}
		elem = e
	}
	first, _ := o.img.PageRange(x.arr)
	return (first<<o.img.pageShift + elem*int64(x.arr.ElemSize)) >> o.img.pageShift, true, nil
}

// hashHints folds the ordered call sequence into a running hash.
type hashHints struct {
	sum   uint64
	calls int
}

func (h *hashHints) put(v int64) {
	h.sum = bits.RotateLeft64((h.sum^uint64(v))*0x9e3779b97f4a7c15, 29)
}

func (h *hashHints) Touch(page int64, write bool) {
	h.calls++
	h.put('T')
	h.put(page)
	if write {
		h.put(1)
	}
}

func (h *hashHints) Work(ns float64) {
	h.calls++
	h.put('W')
	h.put(int64(math.Float64bits(ns)))
}

func (h *hashHints) Prefetch(tag int, pages []int64) {
	h.calls++
	h.put('P')
	h.put(int64(tag))
	h.put(int64(len(pages)))
	for _, p := range pages {
		h.put(p)
	}
}

func (h *hashHints) Release(tag, prio int, page int64) {
	h.calls++
	h.put('R')
	h.put(int64(tag))
	h.put(int64(prio))
	h.put(page)
}

// sameAsOracle fails unless the executor, stepping one iteration at a
// time, makes exactly the oracle's ordered call sequence on prog.
func sameAsOracle(t *testing.T, label string, prog *lang.Program, tgt Target, params map[string]int64) {
	t.Helper()
	c := MustCompile(prog, tgt)
	clearAllStrip(c)
	img, err := c.Bind(params)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	exec, ref := &hashHints{}, &hashHints{}
	if err := img.Run(exec); err != nil {
		t.Fatalf("%s executor: %v", label, err)
	}
	if err := runOracle(img, ref); err != nil {
		t.Fatalf("%s oracle: %v", label, err)
	}
	if exec.calls == 0 {
		t.Fatalf("%s: no calls", label)
	}
	if *exec != *ref {
		t.Fatalf("%s: executor %x in %d calls, oracle %x in %d calls\n%s",
			label, exec.sum, exec.calls, ref.sum, ref.calls, lang.Format(prog))
	}
}

// TestExecutorMatchesOracleWorkloads runs the six scaled benchmarks,
// which cover indirect references, symbolic strides, procedure calls
// and unknown bounds. Each makes millions of calls, so they run in
// parallel.
func TestExecutorMatchesOracleWorkloads(t *testing.T) {
	cfg := kernel.TestConfig()
	tgt := DefaultTarget(cfg.PageSize, cfg.UserMemPages)
	for _, spec := range workload.AllScaled() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			sameAsOracle(t, spec.Name, spec.Program(nil), tgt, spec.Params)
		})
	}
}

// TestExecutorMatchesOracleRandom runs random programs: the affine nests
// of randomProgram, and nests that add an indirect reference and an
// assignment beside the inner loop.
func TestExecutorMatchesOracleRandom(t *testing.T) {
	// A short fault latency keeps prefetch distances within the arrays,
	// so first-iteration gating shows in the calls.
	near := testTarget()
	near.FaultLatency = 20 * sim.Microsecond
	r := sim.NewRand(20261017)
	for trial := 0; trial < 40; trial++ {
		affine := randomProgram(r, trial)
		mixed, params := randomMixedProgram(r, sim.NewRand(uint64(trial)), trial)
		t.Run(fmt.Sprint(trial), func(t *testing.T) {
			t.Parallel()
			sameAsOracle(t, "affine", affine, testTarget(), nil)
			sameAsOracle(t, "mixed", mixed, near, params)
		})
	}
}

// FuzzExecutorOracle runs the random programs of
// TestExecutorMatchesOracleRandom from fuzzed generator seeds: seed
// draws the affine program and the mixed program's shape, widen how the
// mixed program is widened. The corpus holds the test's 40 widening
// seeds, each with its own shape seed.
func FuzzExecutorOracle(f *testing.F) {
	for trial := uint64(0); trial < 40; trial++ {
		f.Add(20261017+trial, trial)
	}
	near := testTarget()
	near.FaultLatency = 20 * sim.Microsecond
	f.Fuzz(func(t *testing.T, seed, widen uint64) {
		r := sim.NewRand(seed)
		affine := randomProgram(r, 0)
		mixed, params := randomMixedProgram(r, sim.NewRand(widen), 0)
		sameAsOracle(t, "affine", affine, testTarget(), nil)
		sameAsOracle(t, "mixed", mixed, near, params)
	})
}

// randomMixedProgram builds a two-deep nest whose inner loop, of random
// step, reads an affine array and updates another through an index
// array, and whose outer loop runs an affine assignment before or after
// the inner loop. It draws that shape from r, and from w how to widen
// it: one time in four the index subscript is the plain idx[j] and the
// index values lie in c's extent; otherwise the subscript has either a
// symbolic stride S on j, half the time beside an outer term, or an
// outer term and a coefficient above 1 on j, plus a constant that may
// start it below 0, and half the time the index values run from -m to
// 2m-1 for c of m elements. One time in three the affine read descends
// through a. idx ends at the subscript's last value, so look-ahead
// always runs past it. It returns the program and the binding of S, if
// it has one.
func randomMixedProgram(r, w *sim.Rand, id int) (*lang.Program, map[string]int64) {
	ni := int64(4 + r.Intn(28))
	nj := int64(64 + r.Intn(4096))
	ci, cj := int64(r.Intn(3)), int64(1+r.Intn(3))
	n := ci*(ni-1) + cj*(nj-1) + 1
	m := int64(1024 + r.Intn(8192))
	outer := fmt.Sprintf("    b[%d*i] = b[%d*i] + 1 @ %d\n", 1+r.Intn(2), 1+r.Intn(2), 5+r.Intn(20))
	step := 1 + r.Intn(3)
	cost := 10 + r.Intn(40)
	swap := r.Intn(2) == 0
	seed := uint64(r.Intn(1 << 30))

	sub, nidx, decl := "j", nj, ""
	var params map[string]int64
	data := func(i int64) int64 { return int64(sim.Hash64(seed+uint64(i)) % uint64(m)) }
	if w.Intn(4) != 0 {
		k := int64(w.Intn(7) - 3)
		if w.Intn(3) == 0 {
			stride := int64(1 + w.Intn(3))
			params, decl = map[string]int64{"S": stride}, "param S\n"
			sub, nidx = fmt.Sprintf("S*j%+d", k), stride*(nj-1)+k+1
		} else {
			ki, kj := int64(1+w.Intn(3)), int64(2+w.Intn(2))
			sub, nidx = fmt.Sprintf("%d*i+%d*j%+d", ki, kj, k), ki*(ni-1)+kj*(nj-1)+k+1
		}
		if w.Intn(2) == 0 {
			data = func(i int64) int64 { return int64(sim.Hash64(seed+uint64(i))%uint64(3*m)) - m }
		}
	}
	// Drawn after every other choice of w, so those choices do not
	// depend on these.
	if params != nil && w.Intn(2) == 0 {
		ki := int64(1 + w.Intn(3))
		sub, nidx = fmt.Sprintf("%d*i+%s", ki, sub), ki*(ni-1)+nidx
	}
	read := fmt.Sprintf("%d*i+%d*j", ci, cj)
	if w.Intn(3) == 0 {
		read = fmt.Sprintf("%d-%d*i-%d*j", n-1, ci, cj)
	}
	inner := fmt.Sprintf(`    for j = 0 to %d step %d {
        c[idx[%s]] = c[idx[%s]] + a[%s] @ %d
    }
`, nj-1, step, sub, sub, read, cost)
	body := outer + inner
	if swap {
		body = inner + outer
	}
	prog := lang.MustParse(fmt.Sprintf(`program mixed%d
%sarray a[%d] of float64
array b[%d] of float64
array c[%d] of float64
array idx[%d] of int64
for i = 0 to %d {
%s}
`, id, decl, n, 2*ni, m, nidx, ni-1, body))
	prog.SetData("idx", data)
	return prog, params
}
