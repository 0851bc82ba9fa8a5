package compiler

import (
	"fmt"
	"strings"
	"testing"

	"memhogs/internal/lang"
	"memhogs/internal/sim"
)

func TestEmptyLoopRuns(t *testing.T) {
	prog := lang.MustParse(`
program empty
param N
array a[16] of float64
for i = 1 to N {
    a[0] = a[0] + 1 @ 10
}
`)
	c := MustCompile(prog, testTarget())
	img, err := c.Bind(map[string]int64{"N": 0})
	if err != nil {
		t.Fatal(err)
	}
	h := newRec()
	if err := img.Run(h); err != nil {
		t.Fatal(err)
	}
	if h.workNS != 0 || len(h.touches) != 0 {
		t.Fatalf("empty loop executed: work=%v touches=%d", h.workNS, len(h.touches))
	}
}

func TestStepLoops(t *testing.T) {
	prog := lang.MustParse(`
program stepped
array a[16384] of float64
for i = 0 to 16383 step 4 {
    a[i] = a[i] + 1 @ 10
}
`)
	c := MustCompile(prog, testTarget())
	img, _ := c.Bind(nil)
	h := newRec()
	if err := img.Run(h); err != nil {
		t.Fatal(err)
	}
	// 4096 iterations at 10ns.
	if h.workNS != 40960 {
		t.Fatalf("work = %v, want 40960", h.workNS)
	}
	// The array spans 8 pages; a stride-4 sweep still touches all.
	if len(h.allTouched()) != 8 {
		t.Fatalf("touched %d pages, want 8", len(h.allTouched()))
	}
}

func TestFormalShadowsParam(t *testing.T) {
	prog := lang.MustParse(`
program shadow
param n
array a[1024] of float64
proc f(n) {
    for i = 0 to n-1 {
        a[i] = 1 @ 10
    }
}
call f(8)
call f(n)
`)
	c := MustCompile(prog, testTarget())
	img, err := c.Bind(map[string]int64{"n": 16})
	if err != nil {
		t.Fatal(err)
	}
	h := newRec()
	if err := img.Run(h); err != nil {
		t.Fatal(err)
	}
	// 8 + 16 iterations.
	if h.workNS != 240 {
		t.Fatalf("work = %v, want 240 (formal binding broken)", h.workNS)
	}
}

func TestNestedProcFormalRestored(t *testing.T) {
	prog := lang.MustParse(`
program restore
param N
array a[1024] of float64
proc inner(k) {
    for i = 0 to k-1 { a[i] = 2 @ 10 }
}
proc outer(k) {
    call inner(4)
    for i = 0 to k-1 { a[i] = 1 @ 10 }
}
call outer(N)
`)
	c := MustCompile(prog, testTarget())
	img, err := c.Bind(map[string]int64{"N": 8})
	if err != nil {
		t.Fatal(err)
	}
	h := newRec()
	if err := img.Run(h); err != nil {
		t.Fatal(err)
	}
	// inner runs 4 iterations, then outer's own loop must see k=8
	// again: 4 + 8 = 12 iterations.
	if h.workNS != 120 {
		t.Fatalf("work = %v, want 120 (formal not restored after nested call)", h.workNS)
	}
}

func TestNegativeDirectionRef(t *testing.T) {
	// A reference moving backward through memory while the loop
	// ascends.
	prog := lang.MustParse(`
program backward
array a[16384] of float64
array b[16384] of float64
for i = 0 to 16383 {
    b[i] = a[16383-i] @ 10
}
`)
	c := MustCompile(prog, testTarget())
	img, _ := c.Bind(nil)
	h := newRec()
	if err := img.Run(h); err != nil {
		t.Fatal(err)
	}
	// Both arrays fully touched: 8 pages each.
	if len(h.allTouched()) != 16 {
		t.Fatalf("touched %d pages, want 16", len(h.allTouched()))
	}
}

func TestPrefetchClampedToArray(t *testing.T) {
	prog := lang.MustParse(`
program clamp
array a[2048] of float64
for i = 0 to 2047 {
    a[i] = a[i] + 1 @ 10
}
`)
	c := MustCompile(prog, testTarget())
	img, _ := c.Bind(nil)
	h := newRec()
	if err := img.Run(h); err != nil {
		t.Fatal(err)
	}
	lo, hi := img.PageRange(c.Prog.FindArray("a"))
	for p := range h.allPrefetched() {
		if p < lo || p > hi {
			t.Fatalf("prefetch of page %d outside array [%d,%d]", p, lo, hi)
		}
	}
}

// pageLog records, in call order, the touches and prefetches that fall
// in one page range, and every work charge.
type pageLog struct {
	lo, hi int64
	calls  []string
}

func (h *pageLog) in(p int64) bool { return p >= h.lo && p <= h.hi }

func (h *pageLog) Touch(page int64, _ bool) {
	if h.in(page) {
		h.calls = append(h.calls, fmt.Sprintf("T%d", page))
	}
}

func (h *pageLog) Work(float64) { h.calls = append(h.calls, "W") }

func (h *pageLog) Prefetch(_ int, pages []int64) {
	for _, p := range pages {
		if h.in(p) {
			h.calls = append(h.calls, fmt.Sprintf("P%d", p))
		}
	}
}

func (h *pageLog) Release(int, int, int64) {}

// TestIndirectNoTargetAndClamp pins the two edges of an index stream:
// an index element below 0 has no target, and a look-ahead past the
// index array's end reads its last element.
func TestIndirectNoTargetAndClamp(t *testing.T) {
	prog := lang.MustParse(`
program edges
array key[8] of int64
array t[32768] of float64
for i = 0 to 7 {
    t[key[i-2]] = t[key[i-2]] + 1 @ 10
}
`)
	// key[e] selects the first element of t's page e+2 (2048 float64
	// elements a page); t starts on page 1, after key.
	prog.SetData("key", func(e int64) int64 { return (e + 1) * 2048 })
	c := MustCompile(prog, testTarget())
	for _, s := range c.Main {
		for _, d := range s.(*xloop).dirs {
			if d.ind != nil && d.itersAhead < 10 {
				t.Fatalf("look-ahead %d iterations does not pass key's end", d.itersAhead)
			}
		}
	}
	img, err := c.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := img.PageRange(prog.FindArray("t"))
	h := &pageLog{lo: lo, hi: hi}
	if err := img.Run(h); err != nil {
		t.Fatal(err)
	}
	// The prefetch reads key[7] (page 9) from the first iteration on;
	// the two sites find no target until i = 2, then write and read
	// pages 2..7.
	want := "P9 W W T2 T2 W T3 T3 W T4 T4 W T5 T5 W T6 T6 W T7 T7 W"
	if got := strings.Join(h.calls, " "); got != want {
		t.Fatalf("calls on t:\n got %s\nwant %s", got, want)
	}
}

// TestQuietStepsMatchOracle runs a loop that owns an indirect reference,
// so it steps quietly between affine page crossings. Its affine
// references ascend (key, up), descend (down), stand still (z) and
// advance by a symbolic stride (s); each crosses pages in the middle of
// a loop instance, at iterations the others do not, so a quiet span
// that overlooks any of them moves a call. The executor must make the
// oracle's ordered calls with and without prefetches and releases.
func TestQuietStepsMatchOracle(t *testing.T) {
	prog := lang.MustParse(`
program quietmix
param S
array up[8192] of float64
array down[8192] of float64
array z[64] of float64
array s[32768] of float64
array key[6000] of int64
array t[65536] of float64
for i = 0 to 3 {
    for j = 0 to 5999 {
        t[key[j]] = t[key[j]] + up[1000+j] + down[7000-j] + z[i] + s[S*j] @ 10
    }
}
`)
	prog.SetData("key", func(e int64) int64 { return int64(sim.Hash64(uint64(e)) % 65536) })
	near := testTarget()
	near.FaultLatency = 20 * sim.Microsecond
	quietSameAsOracle(t, prog, near, map[string]int64{"S": 3})
}

// quietSameAsOracle checks that prog's inner loop i{j{...}} runs
// quiet, then that the executor makes the oracle's ordered calls on
// prog in all four versions of tgt.
func quietSameAsOracle(t *testing.T, prog *lang.Program, tgt Target, params map[string]int64) {
	t.Helper()
	for _, tc := range []struct {
		label             string
		prefetch, release bool
	}{{"O", false, false}, {"P", true, false}, {"R", false, true}, {"B", true, true}} {
		tgt.Prefetch, tgt.Release = tc.prefetch, tc.release
		inner := MustCompile(prog, tgt).Main[0].(*xloop).body[0].(*xloop)
		if inner.plan < 0 || inner.strip != nil {
			t.Fatalf("%s: inner loop plan=%d strip=%v, want a quiet loop", tc.label, inner.plan, inner.strip != nil)
		}
		sameAsOracle(t, prog.Name+" "+tc.label, prog, tgt, params)
	}
}

// hashData returns index values hashed from seed into [0, m).
func hashData(seed uint64, m int64) func(int64) int64 {
	return func(e int64) int64 { return int64(sim.Hash64(seed+uint64(e)) % uint64(m)) }
}

// TestQuietRunTwoIndexArrays reads two index arrays at the same
// element in every iteration. A repeat read reuses the value only for
// the same element of the same index array, so k2[j] must not be
// served from k1[j].
func TestQuietRunTwoIndexArrays(t *testing.T) {
	prog := lang.MustParse(`
program twokeys
array k1[6000] of int64
array k2[6000] of int64
array t[65536] of float64
array u[65536] of float64
for i = 0 to 2 {
    for j = 0 to 5999 {
        t[k1[j]] = t[k1[j]] + u[k2[j]] @ 10
    }
}
`)
	prog.SetData("k1", hashData(1, 65536))
	prog.SetData("k2", hashData(2, 65536))
	near := testTarget()
	near.FaultLatency = 20 * sim.Microsecond
	quietSameAsOracle(t, prog, near, nil)
}

// TestQuietRunOneIndexArrayTwoSubscripts reads one index array at two
// subscripts in every iteration, so reads of it alternate between two
// elements.
func TestQuietRunOneIndexArrayTwoSubscripts(t *testing.T) {
	prog := lang.MustParse(`
program twosubs
array key[6010] of int64
array t[65536] of float64
array u[65536] of float64
for i = 0 to 2 {
    for j = 0 to 5999 {
        t[key[j]] = t[key[j]] + u[key[j+10]] @ 10
    }
}
`)
	prog.SetData("key", hashData(3, 65536))
	near := testTarget()
	near.FaultLatency = 20 * sim.Microsecond
	quietSameAsOracle(t, prog, near, nil)
}

// TestQuietRunClampedLookAhead gives the indirect prefetch a
// look-ahead longer than its index array, so its pre-shifted stream
// starts past the array's end and every read of it clamps to the last
// element.
func TestQuietRunClampedLookAhead(t *testing.T) {
	prog := lang.MustParse(`
program clampall
array key[3000] of int64
array t[65536] of float64
for i = 0 to 2 {
    for j = 0 to 2999 {
        t[key[j]] = t[key[j]] + 1 @ 10
    }
}
`)
	prog.SetData("key", hashData(4, 65536))
	tgt := testTarget()
	tgt.Prefetch = true
	for _, d := range MustCompile(prog, tgt).Main[0].(*xloop).body[0].(*xloop).dirs {
		if d.ind != nil && d.itersAhead < 3000 {
			t.Fatalf("look-ahead %d iterations does not start past key's end", d.itersAhead)
		}
	}
	quietSameAsOracle(t, prog, tgt, nil)
}

// TestQuietRunAllocatesNothing runs a quiet loop's plan once to grow
// the runner's buffers, then checks that further quiet runs allocate
// nothing. It also checks that the run reads each index element once
// per iteration: the prefetch's look-ahead element, and one read that
// both sites of key[j] share.
func TestQuietRunAllocatesNothing(t *testing.T) {
	prog := lang.MustParse(`
program quietalloc
array key[8192] of int64
array t[65536] of float64
array u[8192] of float64
for j = 0 to 8191 {
    t[key[j]] = t[key[j]] + u[j] @ 10
}
`)
	reads := 0
	data := hashData(5, 65536)
	prog.SetData("key", func(e int64) int64 { reads++; return data(e) })
	tgt := testTarget()
	tgt.FaultLatency = 20 * sim.Microsecond
	c := MustCompile(prog, tgt)
	l := c.Main[0].(*xloop)
	if l.plan < 0 {
		t.Fatal("loop is not quiet")
	}
	img, err := c.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	h := &hashHints{}
	r := img.newRunner(h)
	r.vals[l.vSlot], r.bound[l.vSlot] = 0, true
	for _, x := range l.streams {
		st, err := r.open(x, l.vSlot, l.step)
		if err != nil {
			t.Fatal(err)
		}
		r.streams = append(r.streams, st)
	}
	const n = 1000
	r.quietRun(l, n)
	if reads != 2*n {
		t.Errorf("%d index reads in %d quiet iterations, want %d", reads, n, 2*n)
	}
	if h.calls == 0 {
		t.Fatal("quiet run made no calls")
	}
	if allocs := testing.AllocsPerRun(20, func() { r.quietRun(l, n) }); allocs != 0 {
		t.Fatalf("warmed quiet run allocates %v times", allocs)
	}
}

// TestPageRangeForeignArray checks that an array the program does not
// declare, even one with a declared array's name and shape, has the
// empty page range rather than another array's pages.
func TestPageRangeForeignArray(t *testing.T) {
	src := `
program two
array a[4096] of float64
array b[4096] of float64
for i = 0 to 4095 {
    b[i] = a[i] @ 10
}
`
	c := MustCompile(lang.MustParse(src), testTarget())
	img, err := c.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := img.PageRange(c.Prog.FindArray("b")); lo != 2 || hi != 3 {
		t.Fatalf("b spans pages [%d,%d], want [2,3]", lo, hi)
	}
	foreign := lang.MustParse(src).FindArray("a")
	if lo, hi := img.PageRange(foreign); lo != 0 || hi != -1 {
		t.Fatalf("foreign array spans pages [%d,%d], want the empty range [0,-1]", lo, hi)
	}
}

func TestRunReentrant(t *testing.T) {
	// The same Image must be runnable repeatedly (the driver's Repeat
	// mode) with identical observable behaviour.
	prog := lang.MustParse(`
program again
array a[8192] of float64
for i = 0 to 8191 {
    a[i] = a[i] * 2 @ 10
}
`)
	c := MustCompile(prog, testTarget())
	img, _ := c.Bind(nil)
	h1 := newRec()
	if err := img.Run(h1); err != nil {
		t.Fatal(err)
	}
	h2 := newRec()
	if err := img.Run(h2); err != nil {
		t.Fatal(err)
	}
	if h1.workNS != h2.workNS || len(h1.touches) != len(h2.touches) {
		t.Fatalf("second run differs: work %v/%v touches %d/%d",
			h1.workNS, h2.workNS, len(h1.touches), len(h2.touches))
	}
}

func (h *recordingHints) allTouched() map[int64]bool {
	out := map[int64]bool{}
	for _, p := range h.touches {
		out[p] = true
	}
	return out
}
