package rt

import (
	"fmt"
	"testing"

	"memhogs/internal/events"
	"memhogs/internal/kernel"
	"memhogs/internal/pdpm"
	"memhogs/internal/sim"
)

// rig builds a small machine with one process, its PM, and a layer in
// the given mode. Tests drive the layer from inside the process's main
// thread.
type rig struct {
	sys   *kernel.System
	p     *kernel.Process
	pm    *pdpm.PM
	layer *Layer
}

func newRig(t *testing.T, mode Mode, mutate func(*Config)) *rig {
	t.Helper()
	cfg := kernel.TestConfig()
	sys := kernel.NewSystem(cfg)
	p := sys.NewProcess("app", 128)
	var pm *pdpm.PM
	if mode.UsesPrefetch() {
		pm = p.AttachPM(0)
	}
	rc := DefaultConfig(mode)
	if mutate != nil {
		mutate(&rc)
	}
	return &rig{sys: sys, p: p, pm: pm, layer: New(p, pm, rc)}
}

// drive runs body on the process's main thread and completes the
// simulation.
func (r *rig) drive(body func(th *kernel.Thread)) {
	r.p.Start(true, func(th *kernel.Thread) {
		r.layer.Bind(th)
		body(th)
	})
	r.sys.Run(0)
}

func TestPrefetchFilteredByBitmap(t *testing.T) {
	r := newRig(t, ModePrefetch, nil)
	r.drive(func(th *kernel.Thread) {
		r.layer.Touch(3, false) // page in
		r.layer.Prefetch(0, []int64{3})
	})
	if r.layer.Stats.PrefetchFiltered != 1 {
		t.Fatalf("stats = %+v", r.layer.Stats)
	}
	if r.layer.Stats.PrefetchIssued != 0 {
		t.Fatal("resident page prefetched anyway")
	}
}

func TestPrefetchIssuedThroughWorkers(t *testing.T) {
	r := newRig(t, ModePrefetch, nil)
	r.drive(func(th *kernel.Thread) {
		r.layer.Prefetch(0, []int64{5, 6, 7})
		// Give the workers time to complete the reads.
		th.SleepIdle(100 * sim.Millisecond)
		for _, vpn := range []int{5, 6, 7} {
			if !r.p.AS.IsResident(vpn) {
				t.Errorf("page %d not prefetched", vpn)
			}
		}
	})
	if r.layer.Stats.PrefetchIssued != 3 {
		t.Fatalf("issued = %d, want 3", r.layer.Stats.PrefetchIssued)
	}
	// Prefetch service time lands on worker threads, not the app.
	if r.p.WorkerTimes[1] == 0 { // vm.BucketSystem
		t.Error("workers consumed no system time")
	}
}

func TestReleaseOneBehindFilter(t *testing.T) {
	r := newRig(t, ModeAggressive, nil)
	r.drive(func(th *kernel.Thread) {
		for vpn := 0; vpn < 4; vpn++ {
			r.layer.Touch(int64(vpn), false)
		}
		// First request for a tag is recorded, not issued.
		r.layer.Release(7, 0, 0)
		if r.layer.Stats.ReleaseIssued != 0 {
			t.Error("first request issued immediately")
		}
		// Same page again: dropped.
		r.layer.Release(7, 0, 0)
		if r.layer.Stats.ReleaseDupDropped != 1 {
			t.Error("duplicate not dropped")
		}
		// Different page: the previously recorded page is issued.
		r.layer.Release(7, 0, 1)
		if r.layer.Stats.ReleaseIssued != 1 {
			t.Errorf("previous page not issued: %+v", r.layer.Stats)
		}
		th.SleepIdle(10 * sim.Millisecond)
		if r.p.AS.IsResident(0) {
			t.Error("page 0 not freed")
		}
		if !r.p.AS.IsResident(1) {
			t.Error("page 1 freed too early (it is the recorded page)")
		}
	})
}

func TestReleaseNotResidentDropped(t *testing.T) {
	r := newRig(t, ModeAggressive, nil)
	r.drive(func(th *kernel.Thread) {
		r.layer.Release(1, 0, 40)
		r.layer.Release(1, 0, 41) // would issue 40, but 40 is not resident
	})
	if r.layer.Stats.ReleaseNotResident != 1 {
		t.Fatalf("stats = %+v", r.layer.Stats)
	}
}

func TestBufferedHoldsReuseReleases(t *testing.T) {
	r := newRig(t, ModeBuffered, nil)
	r.drive(func(th *kernel.Thread) {
		for vpn := 0; vpn < 8; vpn++ {
			r.layer.Touch(int64(vpn), false)
		}
		// Priority > 0 requests are buffered, not issued (no memory
		// pressure on the empty machine).
		for vpn := 0; vpn < 8; vpn++ {
			r.layer.Release(3, 2, int64(vpn))
		}
		if r.layer.Stats.ReleaseIssued != 0 {
			t.Errorf("buffered mode issued under no pressure: %+v", r.layer.Stats)
		}
		if r.layer.BufferedPages() != 7 { // one-behind holds one
			t.Errorf("buffered = %d, want 7", r.layer.BufferedPages())
		}
		// Zero-priority requests bypass the buffer.
		r.layer.Release(4, 0, 0)
		r.layer.Release(4, 0, 1)
		if r.layer.Stats.ReleaseIssued != 1 {
			t.Errorf("zero-priority request was buffered: %+v", r.layer.Stats)
		}
	})
}

func TestAggressiveIssuesReuseReleases(t *testing.T) {
	r := newRig(t, ModeAggressive, nil)
	r.drive(func(th *kernel.Thread) {
		for vpn := 0; vpn < 4; vpn++ {
			r.layer.Touch(int64(vpn), false)
		}
		r.layer.Release(3, 2, 0)
		r.layer.Release(3, 2, 1)
		if r.layer.Stats.ReleaseIssued != 1 {
			t.Errorf("aggressive mode buffered a reuse release: %+v", r.layer.Stats)
		}
	})
}

func TestFlushDrainsBuffers(t *testing.T) {
	r := newRig(t, ModeBuffered, nil)
	r.drive(func(th *kernel.Thread) {
		for vpn := 0; vpn < 4; vpn++ {
			r.layer.Touch(int64(vpn), false)
		}
		for vpn := 0; vpn < 4; vpn++ {
			r.layer.Release(1, 3, int64(vpn))
		}
		r.layer.Flush()
		if r.layer.BufferedPages() != 0 {
			t.Error("flush left pages buffered")
		}
		th.SleepIdle(10 * sim.Millisecond)
		if r.p.AS.IsResident(0) {
			t.Error("flushed release not executed")
		}
	})
}

func TestDrainLowestPriorityFirst(t *testing.T) {
	r := newRig(t, ModeBuffered, func(c *Config) { c.ReleaseBatch = 2 })
	r.drive(func(th *kernel.Thread) {
		for vpn := 0; vpn < 12; vpn++ {
			r.layer.Touch(int64(vpn), false)
		}
		// Two tags at different priorities. Feed 4 pages each (one
		// stays recorded per tag).
		for i := 0; i < 4; i++ {
			r.layer.Release(1, 1, int64(i))   // low priority: drain first
			r.layer.Release(2, 8, int64(6+i)) // high priority: retain
		}
		// Force a drain regardless of the (ample) free memory.
		r.layer.checkPressureForced()
		th.SleepIdle(10 * sim.Millisecond)
		// The drained pages must come from the low-priority queue.
		if r.p.AS.IsResident(0) || r.p.AS.IsResident(1) {
			t.Error("low-priority pages not drained first")
		}
		if !r.p.AS.IsResident(6) {
			t.Error("high-priority page drained before low-priority queue emptied")
		}
	})
}

func TestWorkAccumulatesFractions(t *testing.T) {
	r := newRig(t, ModeOriginal, nil)
	r.drive(func(th *kernel.Thread) {
		// 10000 calls of 0.3 ns must accumulate to ~3 us, not zero.
		for i := 0; i < 10000; i++ {
			r.layer.Work(0.3)
		}
		th.FlushUser()
	})
	if got := r.p.Times[0]; got < 2900*sim.Nanosecond || got > 3100*sim.Nanosecond {
		t.Fatalf("user time = %v, want ~3us", got)
	}
}

func TestOriginalModeIgnoresHints(t *testing.T) {
	r := newRig(t, ModeOriginal, nil)
	r.drive(func(th *kernel.Thread) {
		r.layer.Prefetch(0, []int64{1})
		r.layer.Release(0, 0, 1)
		r.layer.Release(0, 0, 2)
	})
	if r.layer.Stats.PrefetchCalls != 0 || r.layer.Stats.ReleaseCalls != 0 {
		t.Fatalf("original mode processed hints: %+v", r.layer.Stats)
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{ModeOriginal: "O", ModePrefetch: "P", ModeAggressive: "R", ModeBuffered: "B"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d = %q, want %q", m, m.String(), s)
		}
	}
	if ModeOriginal.UsesPrefetch() || !ModeBuffered.UsesRelease() || ModePrefetch.UsesRelease() {
		t.Fatal("mode predicates wrong")
	}
}

func TestHintedModeRequiresPM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic without PM")
		}
	}()
	cfg := kernel.TestConfig()
	sys := kernel.NewSystem(cfg)
	p := sys.NewProcess("app", 16)
	New(p, nil, DefaultConfig(ModePrefetch))
}

func TestPrefetchQueueOverflowDrops(t *testing.T) {
	r := newRig(t, ModePrefetch, func(c *Config) { c.MaxPfQueue = 4; c.Workers = 1 })
	r.drive(func(th *kernel.Thread) {
		pages := make([]int64, 32)
		for i := range pages {
			pages[i] = int64(i)
		}
		r.layer.Prefetch(0, pages)
	})
	if r.layer.Stats.PrefetchDropped == 0 {
		t.Fatalf("no prefetches dropped at the queue cap: %+v", r.layer.Stats)
	}
}

func TestPrefetchOutOfRangeIgnored(t *testing.T) {
	r := newRig(t, ModePrefetch, nil)
	r.drive(func(th *kernel.Thread) {
		r.layer.Prefetch(0, []int64{-1, 1 << 30})
	})
	if r.layer.Stats.PrefetchIssued != 0 {
		t.Fatal("out-of-range prefetch issued")
	}
}

func TestReactiveBuffersZeroPriority(t *testing.T) {
	r := newRig(t, ModeReactive, nil)
	r.drive(func(th *kernel.Thread) {
		for vpn := 0; vpn < 4; vpn++ {
			r.layer.Touch(int64(vpn), false)
		}
		r.layer.Release(1, 0, 0)
		r.layer.Release(1, 0, 1)
		if r.layer.Stats.ReleaseIssued != 0 {
			t.Error("reactive mode issued a pro-active release")
		}
		if r.layer.BufferedPages() != 1 {
			t.Errorf("buffered = %d, want 1", r.layer.BufferedPages())
		}
		// The daemon's donor pull takes the buffered page.
		got := r.layer.donate(10)
		if len(got) != 1 || got[0] != 0 {
			t.Errorf("donate = %v, want [0]", got)
		}
		if r.layer.donate(10) != nil {
			t.Error("empty queues still donated")
		}
	})
	if r.layer.Stats.Donated != 1 {
		t.Fatalf("Donated = %d", r.layer.Stats.Donated)
	}
}

func TestDonatePriorityOrder(t *testing.T) {
	r := newRig(t, ModeReactive, nil)
	r.drive(func(th *kernel.Thread) {
		for vpn := 0; vpn < 8; vpn++ {
			r.layer.Touch(int64(vpn), false)
		}
		// Tag 1 at priority 4, tag 2 at priority 1: donations must
		// come from priority 1 first.
		r.layer.Release(1, 4, 0)
		r.layer.Release(1, 4, 1) // buffers page 0
		r.layer.Release(2, 1, 4)
		r.layer.Release(2, 1, 5) // buffers page 4
		got := r.layer.donate(1)
		if len(got) != 1 || got[0] != 4 {
			t.Fatalf("donate = %v, want [4] (lowest priority first)", got)
		}
	})
}

func TestQueueOverflowDropsOldest(t *testing.T) {
	r := newRig(t, ModeBuffered, func(c *Config) { c.MaxQueue = 4 })
	r.drive(func(th *kernel.Thread) {
		for vpn := 0; vpn < 16; vpn++ {
			r.layer.Touch(int64(vpn), false)
		}
		for i := 0; i < 10; i++ {
			r.layer.Release(1, 2, int64(i))
		}
	})
	if r.layer.Stats.ReleaseOverflow == 0 {
		t.Fatalf("no overflow recorded: %+v", r.layer.Stats)
	}
	if r.layer.BufferedPages() > 4 {
		t.Fatalf("queue exceeded cap: %d", r.layer.BufferedPages())
	}
}

// TestQueueOverflowThenDrain overflows one release queue, drains part
// of it, refills it past its cap and drains everything, beside a
// second, lower-priority queue. The pages that come out, the pages the
// cap dropped and both overflow counts are those the layer has always
// produced: a queue pop must change only what a pop costs.
func TestQueueOverflowThenDrain(t *testing.T) {
	cfg := kernel.TestConfig()
	sys := kernel.NewSystem(cfg)
	defer sys.Sim.Close()
	rec := events.New(sys.Sim, 0)
	sys.SetEvents(rec)
	p := sys.NewProcess("app", 128)
	pm := p.AttachPM(0)
	rc := DefaultConfig(ModeBuffered)
	rc.MaxQueue = 4
	l := New(p, pm, rc)
	var first, second []int
	p.Start(true, func(th *kernel.Thread) {
		l.Bind(th)
		for vpn := 0; vpn < 24; vpn++ {
			l.Touch(int64(vpn), false)
		}
		// The first request of a tag is only recorded, so releasing
		// pages 0..9 buffers 0..8 into a queue of four.
		for vpn := 0; vpn < 10; vpn++ {
			l.Release(1, 2, int64(vpn))
		}
		first, _ = l.drain(2)
		for vpn := 10; vpn < 15; vpn++ {
			l.Release(1, 2, int64(vpn))
		}
		for vpn := 20; vpn < 23; vpn++ {
			l.Release(2, 1, int64(vpn))
		}
		second, _ = l.drain(100)
	})
	sys.Run(0)

	if got, want := fmt.Sprint(first), "[5 6]"; got != want {
		t.Errorf("first drain = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(second), "[20 21 10 11 12 13]"; got != want {
		t.Errorf("second drain = %s, want %s", got, want)
	}
	var dropped []int
	for _, e := range rec.Events() {
		if e.Kind == events.RTReleaseOverflow {
			dropped = append(dropped, e.Page)
		}
	}
	if got, want := fmt.Sprint(dropped), "[0 1 2 3 4 7 8 9]"; got != want {
		t.Errorf("overflow dropped pages %s, want %s", got, want)
	}
	if l.Stats.ReleaseOverflow != 8 || rec.Counts()[events.RTReleaseOverflow] != 8 {
		t.Errorf("ReleaseOverflow = %d, RTReleaseOverflow = %d, want 8 and 8",
			l.Stats.ReleaseOverflow, rec.Counts()[events.RTReleaseOverflow])
	}
	if n := l.BufferedPages(); n != 0 {
		t.Errorf("%d pages still buffered", n)
	}
}

// TestDrainOrderAcrossLevels creates queues out of (prio, tag) order
// over three priority levels and drains them in two calls, the first
// stopping in the middle of a level's round. Pages leave lowest
// priority first and round-robin by ascending tag within a level.
func TestDrainOrderAcrossLevels(t *testing.T) {
	r := newRig(t, ModeBuffered, nil)
	var first, second, firstPrios []int
	r.drive(func(th *kernel.Thread) {
		for vpn := 0; vpn < 64; vpn++ {
			r.layer.Touch(int64(vpn), false)
		}
		// tag: priority, pages released (the first is only recorded).
		for i, q := range []struct{ tag, prio, n int }{
			{9, 3, 3}, {2, 5, 2}, {4, 1, 4}, {7, 3, 2}, {1, 1, 2}, {5, 3, 4},
		} {
			for k := 0; k < q.n; k++ {
				r.layer.Release(q.tag, q.prio, int64(10*i+k))
			}
		}
		first, firstPrios = r.layer.drain(6)
		second, _ = r.layer.drain(100)
	})
	if got, want := fmt.Sprint(first), "[40 20 21 22 50 30]"; got != want {
		t.Errorf("first drain = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(firstPrios), "[1 1 1 1 3 3]"; got != want {
		t.Errorf("first drain priorities = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(second), "[51 0 52 1 10]"; got != want {
		t.Errorf("second drain = %s, want %s", got, want)
	}
}
