package sim

import (
	"container/heap"
	"fmt"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("final time = %v, want 30", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestHorizonStopsRun(t *testing.T) {
	s := New()
	ran := false
	s.At(100, func() { ran = true })
	end := s.Run(50)
	if ran {
		t.Fatal("event beyond horizon ran")
	}
	if end != 50 {
		t.Fatalf("end = %v, want 50", end)
	}
	// Continuing past the horizon runs the event.
	s.Run(0)
	if !ran {
		t.Fatal("event did not run on resumed Run")
	}
}

func TestStop(t *testing.T) {
	s := New()
	n := 0
	s.At(1, func() { n++; s.Stop() })
	s.At(2, func() { n++ })
	s.Run(0)
	if n != 1 {
		t.Fatalf("Stop did not halt the loop: n=%d", n)
	}
	s.Run(0)
	if n != 2 {
		t.Fatalf("resume after Stop failed: n=%d", n)
	}
}

func TestProcSleep(t *testing.T) {
	s := New()
	var wake Time
	s.Spawn("p", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		wake = p.Now()
	})
	s.Run(0)
	if wake != 5*Millisecond {
		t.Fatalf("woke at %v, want 5ms", wake)
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", s.LiveProcs())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			s.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					log = append(log, name)
					p.Sleep(Millisecond)
				}
			})
		}
		s.Run(0)
		return log
	}
	first := run()
	for i := 0; i < 3; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatal("nondeterministic length")
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving at %d: %v vs %v", j, first, again)
			}
		}
	}
}

func TestParkWake(t *testing.T) {
	s := New()
	var woke Time
	p := s.Spawn("sleeper", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	s.At(7*Millisecond, func() { p.Wake() })
	s.Run(0)
	if woke != 7*Millisecond {
		t.Fatalf("woke at %v, want 7ms", woke)
	}
}

func TestWaitqFIFO(t *testing.T) {
	s := New()
	q := NewWaitq("q")
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			q.Wait(p)
			order = append(order, name)
		})
	}
	s.At(1, func() { q.WakeOne() })
	s.At(2, func() { q.WakeOne() })
	s.At(3, func() { q.WakeOne() })
	s.Run(0)
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order %v, want %v", order, want)
		}
	}
}

func TestLockMutualExclusion(t *testing.T) {
	s := New()
	l := NewLock("l")
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		s.Spawn("worker", func(p *Proc) {
			for j := 0; j < 5; j++ {
				l.Acquire(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Sleep(Millisecond)
				inside--
				l.Release(p)
			}
		})
	}
	s.Run(0)
	if maxInside != 1 {
		t.Fatalf("lock admitted %d holders", maxInside)
	}
	if l.Acquisitions != 20 {
		t.Fatalf("acquisitions = %d, want 20", l.Acquisitions)
	}
	if l.Contended == 0 || l.WaitTime == 0 {
		t.Fatal("expected contention to be recorded")
	}
}

func TestLockWaitTimeAccounting(t *testing.T) {
	s := New()
	l := NewLock("l")
	var waited Time
	s.Spawn("holder", func(p *Proc) {
		l.Acquire(p)
		p.Sleep(10 * Millisecond)
		l.Release(p)
	})
	s.Spawn("waiter", func(p *Proc) {
		p.Sleep(Millisecond) // let holder win
		waited = l.Acquire(p)
		l.Release(p)
	})
	s.Run(0)
	if waited != 9*Millisecond {
		t.Fatalf("waited %v, want 9ms", waited)
	}
}

func TestSemLimitsConcurrency(t *testing.T) {
	s := New()
	sem := NewSem("cpu", 2)
	inside, maxInside := 0, 0
	for i := 0; i < 6; i++ {
		s.Spawn("w", func(p *Proc) {
			sem.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(Millisecond)
			inside--
			sem.Release()
		})
	}
	s.Run(0)
	if maxInside != 2 {
		t.Fatalf("semaphore admitted %d, want 2", maxInside)
	}
	if sem.Available() != 2 {
		t.Fatalf("tokens not restored: %d", sem.Available())
	}
}

// TestEventOrderProperty property-checks the heap: any multiset of
// scheduled times executes in non-decreasing time order, with FIFO
// order among equal times.
func TestEventOrderProperty(t *testing.T) {
	check := func(times []uint16) bool {
		s := New()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, tt := range times {
			at := Time(tt % 64) // force collisions
			i := i
			s.At(at, func() { got = append(got, rec{at: at, seq: i}) })
		}
		s.Run(0)
		if len(got) != len(times) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false // FIFO violated among ties
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds collided immediately")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		d    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{4 * Second, "4.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestHash64Stable(t *testing.T) {
	if Hash64(12345) != Hash64(12345) {
		t.Fatal("Hash64 not deterministic")
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		seen[Hash64(i)] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("Hash64 collided within 1000 consecutive inputs: %d unique", len(seen))
	}
}

func TestLockReleaseByNonOwnerPanics(t *testing.T) {
	s := New()
	l := NewLock("l")
	panicked := false
	s.Spawn("owner", func(p *Proc) {
		l.Acquire(p)
		p.Sleep(10 * Millisecond)
		l.Release(p)
	})
	s.Spawn("thief", func(p *Proc) {
		p.Sleep(Millisecond)
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		l.Release(p)
	})
	s.Run(0)
	if !panicked {
		t.Fatal("non-owner release did not panic")
	}
}

func TestLockTryAcquire(t *testing.T) {
	s := New()
	l := NewLock("l")
	s.Spawn("a", func(p *Proc) {
		if !l.TryAcquire(p) {
			t.Error("free lock not acquirable")
		}
		p.Sleep(5 * Millisecond)
		l.Release(p)
	})
	s.Spawn("b", func(p *Proc) {
		p.Sleep(Millisecond)
		if l.TryAcquire(p) {
			t.Error("held lock acquired")
		}
		p.Sleep(10 * Millisecond)
		if !l.TryAcquire(p) {
			t.Error("released lock not acquirable")
		}
		l.Release(p)
	})
	s.Run(0)
}

func TestLockOwnershipHandoffFIFO(t *testing.T) {
	s := New()
	l := NewLock("l")
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			if name != "first" {
				p.Sleep(Microsecond) // deterministic arrival order
			}
			if name == "third" {
				p.Sleep(Microsecond)
			}
			l.Acquire(p)
			order = append(order, name)
			p.Sleep(Millisecond)
			l.Release(p)
		})
	}
	s.Run(0)
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("handoff order %v, want %v", order, want)
		}
	}
}

func TestWaitqWakeAll(t *testing.T) {
	s := New()
	q := NewWaitq("q")
	woken := 0
	for i := 0; i < 5; i++ {
		s.Spawn("w", func(p *Proc) {
			q.Wait(p)
			woken++
		})
	}
	s.At(Millisecond, func() {
		if q.Len() != 5 {
			t.Errorf("queue length = %d", q.Len())
		}
		q.WakeAll()
	})
	s.Run(0)
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
	if q.Len() != 0 {
		t.Fatal("queue not emptied")
	}
}

func TestSemWaitingCount(t *testing.T) {
	s := New()
	sem := NewSem("s", 1)
	s.Spawn("holder", func(p *Proc) {
		sem.Acquire(p)
		p.Sleep(10 * Millisecond)
		sem.Release()
	})
	for i := 0; i < 3; i++ {
		s.Spawn("w", func(p *Proc) {
			p.Sleep(Millisecond)
			sem.Acquire(p)
			sem.Release()
		})
	}
	s.At(5*Millisecond, func() {
		if sem.Waiting() != 3 {
			t.Errorf("waiting = %d, want 3", sem.Waiting())
		}
	})
	s.Run(0)
	if sem.Waiting() != 0 || sem.Available() != 1 {
		t.Fatalf("semaphore not restored: %d waiting, %d tokens", sem.Waiting(), sem.Available())
	}
}

func TestRandDurationRange(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 1000; i++ {
		d := r.Duration(5*Millisecond, 9*Millisecond)
		if d < 5*Millisecond || d >= 9*Millisecond {
			t.Fatalf("Duration out of range: %v", d)
		}
	}
	if r.Duration(5, 5) != 5 {
		t.Fatal("degenerate range not handled")
	}
}

func TestTimeHelpers(t *testing.T) {
	if (2 * Second).Seconds() != 2.0 {
		t.Error("Seconds wrong")
	}
	if (1500 * Microsecond).Millis() != 1.5 {
		t.Error("Millis wrong")
	}
}

func TestSpawnAtDelayedStart(t *testing.T) {
	s := New()
	var started Time = -1
	s.SpawnAt(42*Millisecond, "late", func(p *Proc) { started = p.Now() })
	s.Run(0)
	if started != 42*Millisecond {
		t.Fatalf("started at %v, want 42ms", started)
	}
}

// refEventHeap is the retired container/heap event queue, kept as a
// test oracle: the arena 4-ary heap must dispatch any multiset of
// (time, seq) in exactly the order the old implementation did.
type refEvent struct {
	at  Time
	seq int
}

type refEventHeap []refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestEventOrderMatchesRetiredHeap cross-checks the arena queue
// against the container/heap implementation it replaced: the same
// multiset of scheduled times, pushed in the same order, must dispatch
// in the identical sequence.
func TestEventOrderMatchesRetiredHeap(t *testing.T) {
	check := func(times []uint16) bool {
		ref := make(refEventHeap, 0, len(times))
		heap.Init(&ref)
		s := New()
		var got []int
		for i, tt := range times {
			at := Time(tt % 64) // force ties
			heap.Push(&ref, refEvent{at: at, seq: i})
			i := i
			s.At(at, func() { got = append(got, i) })
		}
		s.Run(0)
		if len(got) != len(times) {
			return false
		}
		for i := range got {
			want := heap.Pop(&ref).(refEvent)
			if got[i] != want.seq {
				t.Logf("dispatch %d: got seq %d, retired heap says %d", i, got[i], want.seq)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleDispatchZeroAllocs pins the arena queue's core promise:
// once the arena has grown to the workload's high-water mark,
// scheduling and dispatching events allocates nothing.
func TestScheduleDispatchZeroAllocs(t *testing.T) {
	s := New()
	fired := 0
	fn := func() { fired++ }
	// Warm the arena past any capacity this test will need.
	for i := 0; i < 256; i++ {
		s.At(Time(i), fn)
	}
	s.Run(0)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			s.At(s.Now()+Time(i), fn)
		}
		s.Run(0)
	})
	if allocs != 0 {
		t.Fatalf("schedule+dispatch allocated %.1f times per run, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no events fired")
	}
}

// TestClampCounter pins the clamp observability contract: scheduling
// in the past is executed at "now" and counted, never silent.
func TestClampCounter(t *testing.T) {
	s := New()
	s.At(100, func() {
		s.At(50, func() {}) // stale deadline: clamped to now=100
	})
	s.Run(0)
	if s.ClampedSchedules() != 1 {
		t.Fatalf("ClampedSchedules = %d, want 1", s.ClampedSchedules())
	}
	if s.Now() != 100 {
		t.Fatalf("clamped event ran at %v, want 100", s.Now())
	}
}

// TestTimeAppendFormat pins the one time formatter against the
// fmt.Sprintf forms String used to build, on each unit boundary and on
// .xxx5 ties, where %.3f rounds the float64 quotient (1.0005 is just
// below the tie in binary, 2.0005 just above) and integer half-up
// rounding would not match.
func TestTimeAppendFormat(t *testing.T) {
	sprintf := func(t Time) string {
		switch {
		case t >= Second:
			return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
		case t >= Millisecond:
			return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
		case t >= Microsecond:
			return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
		default:
			return fmt.Sprintf("%dns", int64(t))
		}
	}
	for _, c := range []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{Microsecond, "1.000us"},
		{Millisecond - 1, "999.999us"},
		{Millisecond, "1.000ms"},
		{1_000_500, "1.000ms"},
		{2_000_500, "2.001ms"},
		{Second - 1, "1000.000ms"},
		{Second, "1.000s"},
		{1_234_500_000, "1.234s"},
		{30 * 60 * Second, "1800.000s"},
	} {
		if ref := sprintf(c.t); ref != c.want {
			t.Fatalf("table entry %d: fmt gives %q, table says %q", int64(c.t), ref, c.want)
		}
		if got := string(c.t.AppendFormat([]byte("t="))); got != "t="+c.want {
			t.Errorf("AppendFormat(%d) = %q, want %q", int64(c.t), got, "t="+c.want)
		}
		if got := c.t.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.t), got, c.want)
		}
	}
}
