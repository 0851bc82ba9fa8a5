package compiler

import (
	"fmt"
	"testing"

	"memhogs/internal/lang"
	"memhogs/internal/sim"
)

// clearStrip makes every loop step one iteration at a time by removing
// the strip plans from an executable tree.
func clearStrip(list []xstmt) {
	for _, s := range list {
		if xl, ok := s.(*xloop); ok {
			xl.strip = nil
			clearStrip(xl.body)
		}
	}
}

func clearAllStrip(c *Compiled) {
	clearStrip(c.Main)
	for _, body := range c.procs {
		clearStrip(body)
	}
}

// setHints collects page sets per hint kind.
type setHints struct {
	touched  map[int64]bool
	prefetch map[int64]bool
	released map[int64]bool
	work     float64
}

func newSetHints() *setHints {
	return &setHints{touched: map[int64]bool{}, prefetch: map[int64]bool{}, released: map[int64]bool{}}
}

func (h *setHints) Touch(page int64, write bool) { h.touched[page] = true }
func (h *setHints) Work(ns float64)              { h.work += ns }
func (h *setHints) Prefetch(tag int, pages []int64) {
	for _, p := range pages {
		h.prefetch[p] = true
	}
}
func (h *setHints) Release(tag, prio int, page int64) { h.released[page] = true }

// randomProgram builds a random affine loop-nest program. The
// generator keeps subscripts in bounds by sizing arrays from the
// maximum possible subscript value.
func randomProgram(r *sim.Rand, id int) *lang.Program {
	depth := 1 + r.Intn(2)           // 1..2 loops
	trips := int64(64 + r.Intn(512)) // per loop
	narr := 1 + r.Intn(2)

	src := fmt.Sprintf("program rand%d\n", id)
	// Max subscript: sum over loops of coef*trips + const.
	maxIdx := int64(0)
	type term struct {
		coef int64
		v    string
	}
	vars := []string{"i", "j"}[:depth]
	// One ref per array with random coefficients.
	refs := make([][]term, narr)
	consts := make([]int64, narr)
	for a := 0; a < narr; a++ {
		var ts []term
		for _, v := range vars {
			c := int64(r.Intn(4)) // 0..3
			if c > 0 {
				ts = append(ts, term{coef: c, v: v})
			}
		}
		if len(ts) == 0 {
			ts = append(ts, term{coef: 1, v: vars[len(vars)-1]})
		}
		refs[a] = ts
		consts[a] = int64(r.Intn(8))
		idx := consts[a]
		for _, t := range ts {
			idx += t.coef * (trips - 1)
		}
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	for a := 0; a < narr; a++ {
		src += fmt.Sprintf("array a%d[%d] of float64\n", a, maxIdx+8)
	}
	for d, v := range vars {
		src += fmt.Sprintf("%sfor %s = 0 to %d {\n", indentN(d), v, trips-1)
	}
	// Body: one assignment touching every array.
	expr := ""
	for a := 0; a < narr; a++ {
		sub := fmt.Sprintf("%d", consts[a])
		for _, t := range refs[a] {
			sub = fmt.Sprintf("%d*%s+%s", t.coef, t.v, sub)
		}
		if a == 0 {
			expr = fmt.Sprintf("a0[%s] = a0[%s]", sub, sub)
		} else {
			expr += fmt.Sprintf(" + a%d[%s]", a, sub)
		}
	}
	src += indentN(depth) + expr + " @ 25\n"
	for d := depth - 1; d >= 0; d-- {
		src += indentN(d) + "}\n"
	}
	return lang.MustParse(src)
}

func indentN(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += "    "
	}
	return s
}

// runSets compiles prog for the test target, clearing the strip plans
// when stepping is set, and runs it with the given bindings.
func runSets(t *testing.T, prog *lang.Program, params map[string]int64, stepping bool) *setHints {
	t.Helper()
	c := MustCompile(prog, testTarget())
	if stepping {
		clearAllStrip(c)
	}
	img, err := c.Bind(params)
	if err != nil {
		t.Fatal(err)
	}
	h := newSetHints()
	if err := img.Run(h); err != nil {
		t.Fatal(err)
	}
	return h
}

// sameSets fails unless strip-mode and stepping runs of prog touched,
// prefetched and released the same page sets and accounted the same
// work.
func sameSets(t *testing.T, label string, prog *lang.Program, strip, step *setHints) {
	t.Helper()
	for _, k := range []struct {
		kind        string
		strip, step map[int64]bool
	}{
		{"touched", strip.touched, step.touched},
		{"prefetched", strip.prefetch, step.prefetch},
		{"released", strip.released, step.released},
	} {
		for p := range k.strip {
			if !k.step[p] {
				t.Fatalf("%s: page %d %s only in strip mode (strip=%d stepping=%d pages)\n%s",
					label, p, k.kind, len(k.strip), len(k.step), lang.Format(prog))
			}
		}
		for p := range k.step {
			if !k.strip[p] {
				t.Fatalf("%s: page %d %s only when stepping (strip=%d stepping=%d pages)\n%s",
					label, p, k.kind, len(k.strip), len(k.step), lang.Format(prog))
			}
		}
	}
	if strip.work != step.work {
		t.Fatalf("%s: work differs: strip=%v stepping=%v", label, strip.work, step.work)
	}
}

// TestStripEquivalenceRandom property-checks that strip-mode execution
// observes the same pages, emits the same hint page sets, and accounts
// the same work as stepping one iteration at a time, across random
// affine programs.
func TestStripEquivalenceRandom(t *testing.T) {
	r := sim.NewRand(20260706)
	for trial := 0; trial < 40; trial++ {
		prog := randomProgram(r, trial)
		sameSets(t, fmt.Sprintf("trial %d", trial), prog,
			runSets(t, prog, nil, false), runSets(t, prog, nil, true))
	}
}

// TestStripEquivalenceNegativeCoef checks descending address streams
// (negative coefficients) across the two stepping rules.
func TestStripEquivalenceNegativeCoef(t *testing.T) {
	prog := lang.MustParse(`
program revsweep
param N
known N = 8192
array a[8200] of float64
for i = 0 to N-1 {
    a[8192-i] = a[8192-i] + 1 @ 10
}
`)
	hs := runSets(t, prog, nil, false)
	sameSets(t, "descending sweep", prog, hs, runSets(t, prog, nil, true))
	sameAsOracle(t, "descending sweep", prog, testTarget(), nil)
	// The sweep covers the whole array: 8200*8/16384 pages.
	if len(hs.touched) != 5 {
		t.Fatalf("touched %d pages, want 5", len(hs.touched))
	}
}

// TestStripSymbolicStrideEquivalence checks runtime-bound strides,
// including a subscript with both a symbolic and a plain term on the
// loop variable, whose per-iteration stride is their sum. Stepping must
// also match the element-wise oracle, since both stepping rules share
// the streams' stride.
func TestStripSymbolicStrideEquivalence(t *testing.T) {
	progs := []*lang.Program{
		lang.MustParse(`
program symstride
param S
array a[65536] of float64
for k = 0 to 8191 {
    a[S*k] = a[S*k] + 1 @ 10
}
`),
		lang.MustParse(`
program mixedstride
param S
array a[81920] of float64
for k = 0 to 8191 {
    a[S*k+k] = a[S*k+k] + 1 @ 10
}
`),
	}
	for _, prog := range progs {
		for _, stride := range []int64{1, 3, 8} {
			label := fmt.Sprintf("%s S=%d", prog.Name, stride)
			params := map[string]int64{"S": stride}
			sameSets(t, label, prog, runSets(t, prog, params, false), runSets(t, prog, params, true))
			sameAsOracle(t, label, prog, testTarget(), params)
		}
	}
}
