package vm

import (
	"testing"

	"memhogs/internal/disk"
	"memhogs/internal/mem"
	"memhogs/internal/sim"
)

// testExec is a minimal Exec: system time is plain sleep, stalls are
// recorded per bucket.
type testExec struct {
	proc  *sim.Proc
	times [NumBuckets]sim.Time
}

func (e *testExec) Proc() *sim.Proc              { return e.proc }
func (e *testExec) Account(b Bucket, d sim.Time) { e.times[b] += d }
func (e *testExec) SystemThen(d sim.Time, k func()) {
	e.times[BucketSystem] += d
	e.proc.SleepThen(d, k)
}

func testParams() Params {
	return Params{
		SoftFaultTime: 30 * sim.Microsecond,
		RescueTime:    80 * sim.Microsecond,
		HardFaultCPU:  200 * sim.Microsecond,
		PageoutCPU:    60 * sim.Microsecond,
	}
}

func testDiskCfg() disk.Config {
	return disk.Config{
		NumDisks: 2, NumAdapters: 1,
		PosTimeMin: 5 * sim.Millisecond, PosTimeMax: 5 * sim.Millisecond,
		SeqPosTime: 600 * sim.Microsecond, TransferTime: 900 * sim.Microsecond,
		Seed: 1,
	}
}

// rig bundles a tiny machine for VM tests.
type rig struct {
	s    *sim.Sim
	phys *mem.Phys
	dk   *disk.Array
	as   *AS
}

func newRig(frames, pages int) *rig {
	s := sim.New()
	phys := mem.New(s, frames)
	dk := disk.New(s, testDiskCfg())
	as := NewAS("test", 0, pages, 0, phys, dk, testParams())
	return &rig{s: s, phys: phys, dk: dk, as: as}
}

// inProc runs body inside a spawned process and runs the sim to
// completion, returning the exec for inspection.
func (r *rig) inProc(t *testing.T, body func(x *testExec)) *testExec {
	t.Helper()
	x := &testExec{}
	r.s.Spawn("t", func(p *sim.Proc) {
		x.proc = p
		body(x)
	})
	r.s.Run(0)
	return x
}

func TestHardFaultThenHit(t *testing.T) {
	r := newRig(8, 8)
	var first, second Outcome
	x := r.inProc(t, func(x *testExec) {
		first = r.as.Touch(x, 3, false)
		second = r.as.Touch(x, 3, false)
	})
	if first != HardFault {
		t.Fatalf("first touch = %v, want hard", first)
	}
	if second != Hit {
		t.Fatalf("second touch = %v, want hit", second)
	}
	if r.as.Stats.HardFaults != 1 || r.as.Stats.PageIns != 1 {
		t.Fatalf("stats = %+v", r.as.Stats)
	}
	if x.times[BucketStallIO] == 0 {
		t.Fatal("hard fault recorded no I/O stall")
	}
	if r.as.Resident != 1 {
		t.Fatalf("Resident = %d, want 1", r.as.Resident)
	}
}

func TestSoftFaultRevalidates(t *testing.T) {
	r := newRig(8, 8)
	var out Outcome
	r.inProc(t, func(x *testExec) {
		r.as.Touch(x, 0, false)
		r.as.ClearValid(0, InvalidDaemon)
		out = r.as.Touch(x, 0, false)
	})
	if out != SoftFault {
		t.Fatalf("touch after invalidate = %v, want soft", out)
	}
	if r.as.Stats.SoftFaults != 1 || r.as.Stats.SoftFaultsDaemon != 1 {
		t.Fatalf("stats = %+v", r.as.Stats)
	}
	if !r.as.ResidentValid(0) {
		t.Fatal("page not revalidated")
	}
}

func TestRescueFromFreeList(t *testing.T) {
	r := newRig(8, 8)
	var out Outcome
	r.inProc(t, func(x *testExec) {
		r.as.Touch(x, 5, false)
		// Simulate a steal: invalidate then reclaim.
		r.as.ClearValid(5, InvalidDaemon)
		freed, _ := r.as.TryReclaim(5, mem.FreedDaemon)
		if !freed {
			t.Error("reclaim failed")
		}
		out = r.as.Touch(x, 5, false)
	})
	if out != RescueFault {
		t.Fatalf("touch after reclaim = %v, want rescue", out)
	}
	if r.as.Stats.RescueFaults != 1 {
		t.Fatalf("stats = %+v", r.as.Stats)
	}
	if r.phys.Stats().RescuedDaemon != 1 {
		t.Fatalf("phys stats = %+v", r.phys.Stats())
	}
	// No additional disk read happened.
	if r.as.Stats.PageIns != 1 {
		t.Fatalf("PageIns = %d, want 1", r.as.Stats.PageIns)
	}
}

func TestHardFaultAfterFrameReallocated(t *testing.T) {
	r := newRig(2, 8)
	r.inProc(t, func(x *testExec) {
		r.as.Touch(x, 0, false)
		r.as.ClearValid(0, InvalidDaemon)
		r.as.TryReclaim(0, mem.FreedDaemon)
		// Consume both frames so page 0's old frame is reallocated.
		r.as.Touch(x, 1, false)
		r.as.Touch(x, 2, false)
		out := r.as.Touch(x, 0, false)
		if out != HardFault {
			t.Errorf("touch after reallocation = %v, want hard", out)
		}
	})
}

func TestWriteMarksDirtyAndReclaimReportsIt(t *testing.T) {
	r := newRig(8, 8)
	r.inProc(t, func(x *testExec) {
		r.as.Touch(x, 1, true)
		r.as.ClearValid(1, InvalidDaemon)
		_, dirty := r.as.TryReclaim(1, mem.FreedDaemon)
		if !dirty {
			t.Error("dirty page reported clean at reclaim")
		}
		r.as.Touch(x, 2, false)
		r.as.ClearValid(2, InvalidDaemon)
		_, dirty = r.as.TryReclaim(2, mem.FreedDaemon)
		if dirty {
			t.Error("clean page reported dirty at reclaim")
		}
	})
}

func TestPrefetchLeavesPageInvalid(t *testing.T) {
	r := newRig(8, 8)
	var res PrefetchResult
	var out Outcome
	r.inProc(t, func(x *testExec) {
		res = r.as.Prefetch(x, 4)
		if !r.as.IsResident(4) {
			t.Error("prefetched page not resident")
		}
		if r.as.ResidentValid(4) {
			t.Error("prefetched page should not be valid (no TLB entry)")
		}
		out = r.as.Touch(x, 4, false)
	})
	if res != PrefetchRead {
		t.Fatalf("prefetch = %v, want read", res)
	}
	if out != SoftFault {
		t.Fatalf("first touch of prefetched page = %v, want soft fault", out)
	}
	if r.as.Stats.SoftFaultsDaemon != 0 {
		t.Fatal("prefetch soft fault wrongly attributed to daemon")
	}
}

func TestPrefetchDiscardedWhenNoFreeMemory(t *testing.T) {
	r := newRig(2, 8)
	r.inProc(t, func(x *testExec) {
		r.as.Touch(x, 0, false)
		r.as.Touch(x, 1, false)
		res := r.as.Prefetch(x, 2)
		if res != PrefetchDiscarded {
			t.Errorf("prefetch with full memory = %v, want discarded", res)
		}
		if r.as.IsResident(2) {
			t.Error("discarded prefetch still paged in")
		}
	})
}

func TestPrefetchAlreadyResident(t *testing.T) {
	r := newRig(8, 8)
	r.inProc(t, func(x *testExec) {
		r.as.Touch(x, 0, false)
		if res := r.as.Prefetch(x, 0); res != PrefetchAlreadyIn {
			t.Errorf("prefetch of resident page = %v, want already-in", res)
		}
	})
}

func TestPrefetchRescues(t *testing.T) {
	r := newRig(8, 8)
	r.inProc(t, func(x *testExec) {
		r.as.Touch(x, 0, false)
		r.as.ClearValid(0, InvalidDaemon)
		r.as.TryReclaim(0, mem.FreedDaemon)
		if res := r.as.Prefetch(x, 0); res != PrefetchRescued {
			t.Errorf("prefetch of free-listed page = %v, want rescued", res)
		}
	})
}

func TestFaultWaitsForInflightPrefetch(t *testing.T) {
	r := newRig(8, 8)
	// One proc prefetches; another touches the same page mid-flight.
	x1 := &testExec{}
	r.s.Spawn("pf", func(p *sim.Proc) {
		x1.proc = p
		r.as.Prefetch(x1, 3)
	})
	var out Outcome
	var pageIns int64
	x2 := &testExec{}
	r.s.Spawn("app", func(p *sim.Proc) {
		x2.proc = p
		p.Sleep(sim.Millisecond) // let the prefetch start its I/O
		out = r.as.Touch(x2, 3, false)
		pageIns = r.as.Stats.PageIns
	})
	r.s.Run(0)
	if out != SoftFault {
		t.Fatalf("touch during in-flight prefetch = %v, want soft fault after wait", out)
	}
	if pageIns != 1 {
		t.Fatalf("PageIns = %d, want 1 (no duplicate I/O)", pageIns)
	}
	if x2.times[BucketStallIO] == 0 {
		t.Fatal("waiting for in-flight prefetch not accounted as I/O stall")
	}
}

func TestReleaseRequestThenReference(t *testing.T) {
	r := newRig(8, 8)
	r.inProc(t, func(x *testExec) {
		r.as.Touch(x, 2, false)
		r.as.InvalidateForRelease(2)
		// The page is referenced again before the releaser runs: the
		// soft fault revalidates it, so TryReclaim must refuse.
		r.as.Touch(x, 2, false)
		freed, _ := r.as.TryReclaim(2, mem.FreedRelease)
		if freed {
			t.Error("reclaimed a page that was referenced after the release request")
		}
	})
	if r.as.Stats.SoftFaults != 1 {
		t.Fatalf("SoftFaults = %d, want 1", r.as.Stats.SoftFaults)
	}
}

func TestReleaseRequestUnreferencedIsReclaimed(t *testing.T) {
	r := newRig(8, 8)
	r.inProc(t, func(x *testExec) {
		r.as.Touch(x, 2, false)
		r.as.InvalidateForRelease(2)
		freed, _ := r.as.TryReclaim(2, mem.FreedRelease)
		if !freed {
			t.Error("unreferenced release request not reclaimed")
		}
	})
	if r.as.Resident != 0 {
		t.Fatalf("Resident = %d, want 0", r.as.Resident)
	}
	if r.as.Stats.ReleasedPages != 1 {
		t.Fatalf("ReleasedPages = %d, want 1", r.as.Stats.ReleasedPages)
	}
}

type recordingWatcher struct {
	ins, outs, revals int
	activity          int
}

func (w *recordingWatcher) PageIn(int)     { w.ins++ }
func (w *recordingWatcher) PageOut(int)    { w.outs++ }
func (w *recordingWatcher) Revalidate(int) { w.revals++ }
func (w *recordingWatcher) Activity()      { w.activity++ }

func TestWatcherNotifications(t *testing.T) {
	r := newRig(8, 8)
	w := &recordingWatcher{}
	r.as.SetWatcher(w)
	r.inProc(t, func(x *testExec) {
		r.as.Touch(x, 0, false) // in
		r.as.ClearValid(0, InvalidDaemon)
		r.as.Touch(x, 0, false) // revalidate
		r.as.ClearValid(0, InvalidDaemon)
		r.as.TryReclaim(0, mem.FreedDaemon) // out
	})
	if w.ins != 1 || w.outs != 1 || w.revals != 1 {
		t.Fatalf("watcher saw ins=%d outs=%d revals=%d", w.ins, w.outs, w.revals)
	}
	if w.activity == 0 {
		t.Fatal("no activity notifications")
	}
}

func TestLockContentionAccounted(t *testing.T) {
	r := newRig(8, 8)
	// A daemon-like proc holds the memlock for 20ms while the app
	// faults.
	r.s.Spawn("daemon", func(p *sim.Proc) {
		r.as.Memlock.Acquire(p)
		p.Sleep(20 * sim.Millisecond)
		r.as.Memlock.Release(p)
	})
	x := &testExec{}
	r.s.Spawn("app", func(p *sim.Proc) {
		x.proc = p
		p.Sleep(sim.Millisecond)
		r.as.Touch(x, 0, false)
	})
	r.s.Run(0)
	if x.times[BucketStallLock] < 19*sim.Millisecond {
		t.Fatalf("lock stall %v, want ~19ms", x.times[BucketStallLock])
	}
}

func TestNoRescueReadsFromSwap(t *testing.T) {
	s := sim.New()
	phys := mem.New(s, 8)
	dk := disk.New(s, testDiskCfg())
	params := testParams()
	params.NoRescue = true
	as := NewAS("nr", 0, 8, 0, phys, dk, params)
	var out Outcome
	s.Spawn("t", func(p *sim.Proc) {
		x := &testExec{proc: p}
		as.Touch(x, 0, false)
		as.ClearValid(0, InvalidDaemon)
		as.TryReclaim(0, mem.FreedDaemon)
		out = as.Touch(x, 0, false)
	})
	s.Run(0)
	if out != HardFault {
		t.Fatalf("NoRescue touch = %v, want hard fault", out)
	}
	if phys.Stats().RescuedDaemon != 0 {
		t.Fatal("rescue happened despite NoRescue")
	}
	if as.Stats.PageIns != 2 {
		t.Fatalf("page-ins = %d, want 2 (re-read from swap)", as.Stats.PageIns)
	}
}

func TestHardwareRefBitsFreeRevalidation(t *testing.T) {
	s := sim.New()
	phys := mem.New(s, 8)
	dk := disk.New(s, testDiskCfg())
	params := testParams()
	params.HardwareRefBits = true
	as := NewAS("hw", 0, 8, 0, phys, dk, params)
	s.Spawn("t", func(p *sim.Proc) {
		x := &testExec{proc: p}
		as.Touch(x, 0, false)
		as.ClearValid(0, InvalidDaemon)
		before := p.Now()
		out := as.Touch(x, 0, false)
		if out != Hit {
			t.Errorf("hardware-refbit revalidation counted as %v", out)
		}
		if p.Now() != before {
			t.Error("hardware revalidation consumed time")
		}
	})
	s.Run(0)
	if as.Stats.SoftFaults != 0 {
		t.Fatalf("soft faults = %d, want 0 with hardware reference bits", as.Stats.SoftFaults)
	}
	if !as.ResidentValid(0) {
		t.Fatal("page not revalidated")
	}
}

func TestHardwareRefBitsStillSoftFaultsForPrefetch(t *testing.T) {
	// Hardware bits remove only the daemon's invalidation faults; a
	// prefetched page still takes its validation fault.
	s := sim.New()
	phys := mem.New(s, 8)
	dk := disk.New(s, testDiskCfg())
	params := testParams()
	params.HardwareRefBits = true
	as := NewAS("hw", 0, 8, 0, phys, dk, params)
	s.Spawn("t", func(p *sim.Proc) {
		x := &testExec{proc: p}
		as.Prefetch(x, 2)
		if out := as.Touch(x, 2, false); out != SoftFault {
			t.Errorf("first touch of prefetched page = %v, want soft", out)
		}
	})
	s.Run(0)
}

func TestOverLimitCallback(t *testing.T) {
	r := newRig(16, 16)
	kicks := 0
	r.as.MaxRSS = 2
	r.as.OverLimit = func() { kicks++ }
	r.inProc(t, func(x *testExec) {
		for vpn := 0; vpn < 5; vpn++ {
			r.as.Touch(x, vpn, false)
		}
	})
	if kicks == 0 {
		t.Fatal("OverLimit never fired despite exceeding MaxRSS")
	}
}

// TestFaultReadaheadDoubleAllocRace regresses a bug the system auditor
// caught: thread B passes its busy-check for page 1 and queues on the
// memory lock; the lock holder (thread A, faulting page 0) starts a
// readahead for page 1; B then acquired the lock and double-allocated
// a frame for the in-flight page. The fault path must re-check Busy
// after taking the lock.
func TestFaultReadaheadDoubleAllocRace(t *testing.T) {
	s := sim.New()
	phys := mem.New(s, 64)
	dk := disk.New(s, testDiskCfg())
	params := testParams()
	params.Readahead = 8
	as := NewAS("race", 0, 16, 0, phys, dk, params)

	xa := &testExec{}
	s.Spawn("A", func(p *sim.Proc) {
		xa.proc = p
		as.Touch(xa, 0, false) // hard fault; readahead covers 1..7
	})
	xb := &testExec{}
	s.Spawn("B", func(p *sim.Proc) {
		xb.proc = p
		// Arrive while A holds the memlock doing its fault-setup CPU
		// work, before the readahead for page 1 is submitted.
		p.Sleep(50 * sim.Microsecond)
		as.Touch(xb, 1, false)
	})
	s.Run(0)

	// Exactly one frame may hold (race, 1).
	owners := 0
	for i := 0; i < phys.NumFrames(); i++ {
		f := phys.Frame(mem.FrameID(i))
		if f.Owner != nil && f.Owner.OwnerName() == "race" && f.VPN == 1 && !f.OnFreeList() {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("page 1 owned by %d frames, want 1", owners)
	}
	if !as.ResidentValid(1) {
		t.Fatal("page 1 not resident after the race")
	}
	// B must not have triggered its own disk read for page 1: the
	// readahead covers it. (One read for page 0's fault + 7 readahead.)
	if as.Stats.HardFaults != 1 {
		t.Fatalf("hard faults = %d, want 1 (B should have waited for the readahead)",
			as.Stats.HardFaults)
	}
}

func TestBucketStrings(t *testing.T) {
	want := map[Bucket]string{
		BucketUser: "user", BucketSystem: "system", BucketStallMem: "stall-mem",
		BucketStallLock: "stall-lock", BucketStallCPU: "stall-cpu", BucketStallIO: "stall-io",
	}
	for b, s := range want {
		if b.String() != s {
			t.Errorf("%d.String() = %q, want %q", b, b.String(), s)
		}
	}
}

func TestOutcomeStrings(t *testing.T) {
	if Hit.String() != "hit" || SoftFault.String() != "soft" ||
		RescueFault.String() != "rescue" || HardFault.String() != "hard" {
		t.Fatal("outcome strings wrong")
	}
}

func TestResidencyBitmapsMirrorPTEs(t *testing.T) {
	// Walk an address space through faults, invalidations, reclaims,
	// releases, rescues, and prefetches, checking after each stage that
	// the packed residency/validity bitmaps mirror the PTE array (the
	// source of truth) and that NextResident agrees with a linear scan.
	r := newRig(64, 200)
	check := func(stage string) {
		t.Helper()
		for vpn := 0; vpn < r.as.NumPages(); vpn++ {
			pte := r.as.PTE(vpn)
			if r.as.ResidentBit(vpn) != pte.Present {
				t.Fatalf("%s: vpn %d residency bit %v, PTE present %v",
					stage, vpn, r.as.ResidentBit(vpn), pte.Present)
			}
			if r.as.ValidBit(vpn) != pte.Valid {
				t.Fatalf("%s: vpn %d validity bit %v, PTE valid %v",
					stage, vpn, r.as.ValidBit(vpn), pte.Valid)
			}
		}
		for from := 0; from <= r.as.NumPages(); from += 7 {
			want := -1
			for v := from; v < r.as.NumPages(); v++ {
				if r.as.PTE(v).Present {
					want = v
					break
				}
			}
			if got := r.as.NextResident(from); got != want {
				t.Fatalf("%s: NextResident(%d) = %d, reference scan = %d", stage, from, got, want)
			}
		}
	}
	r.inProc(t, func(x *testExec) {
		for vpn := 0; vpn < 40; vpn++ {
			r.as.Touch(x, vpn, vpn%3 == 0)
		}
		check("after faults")
		for vpn := 0; vpn < 40; vpn += 2 {
			r.as.ClearValid(vpn, InvalidDaemon)
		}
		check("after clock invalidation")
		for vpn := 0; vpn < 20; vpn += 2 {
			r.as.TryReclaim(vpn, mem.FreedDaemon)
		}
		check("after daemon steals")
		r.as.Touch(x, 2, false) // rescue a stolen page
		check("after rescue")
		r.as.InvalidateForRelease(31)
		r.as.TryReclaim(31, mem.FreedRelease)
		check("after release")
		r.as.Prefetch(x, 150)
		check("after prefetch")
		r.as.Touch(x, 150, false)
		check("after prefetched page referenced")
	})
	check("after run")
}

// TestPrefetchRescueRace regresses a crash: a prefetch that finds its
// page's old frame on the free list charges RescueTime before unlinking
// it, and another address space's allocation can take the frame during
// that charge (FrameInvalidated does not take the memory lock). The
// rescue must re-check the frame after the charge and fall back instead
// of rescuing a frame that is no longer the page's.
func TestPrefetchRescueRace(t *testing.T) {
	r := newRig(1, 8)
	other := NewAS("other", 1, 8, 1000, r.phys, r.dk, testParams())
	var res PrefetchResult
	r.inProc(t, func(x *testExec) {
		r.as.Touch(x, 0, false)
		r.as.ClearValid(0, InvalidDaemon)
		if freed, _ := r.as.TryReclaim(0, mem.FreedDaemon); !freed {
			t.Fatal("reclaim failed")
		}
		r.s.SpawnAt(x.proc.Now()+10*sim.Microsecond, "other", func(*sim.Proc) {
			if _, ok := r.phys.TryAlloc(other, 0); !ok {
				t.Error("other could not take the free frame")
			}
		})
		res = r.as.Prefetch(x, 0)
	})
	if res != PrefetchDiscarded {
		t.Fatalf("prefetch whose rescue lost the frame = %v, want discarded", res)
	}
	if f := r.phys.Frame(0); f.Owner != other || f.OnFreeList() {
		t.Fatalf("frame 0 owner = %v (free-listed %v), want other", f.Owner, f.OnFreeList())
	}
	if r.as.IsResident(0) || r.as.PageInInFlight(0) {
		t.Fatal("page 0 resident or in flight after a discarded prefetch")
	}
}

// TestPageInEntryPoints drives each way a page arrives in DRAM — the
// two far-tier promotions, the two swap reads, and swap readahead —
// and checks the state each leaves: only a demand fault validates the
// page (§3.1.2), and a promotion carries the far slot's dirty bit.
func TestPageInEntryPoints(t *testing.T) {
	touch := func(vpn int) func(*testExec, *AS) {
		return func(x *testExec, as *AS) { as.Touch(x, vpn, false) }
	}
	prefetch := func(vpn int) func(*testExec, *AS) {
		return func(x *testExec, as *AS) { as.Prefetch(x, vpn) }
	}
	cases := []struct {
		name      string
		readahead int
		far       bool // vpn is dirtied and demoted to the far tier first
		act       func(*testExec, *AS)
		vpn       int
		valid     bool
		why       InvalidReason
		dirty     bool
		pageIns   int64
		promoted  int64
	}{
		{name: "fault far hit", far: true, act: touch(2), vpn: 2, valid: true, why: InvalidNone, dirty: true, promoted: 1},
		{name: "prefetch far promotion", far: true, act: prefetch(2), vpn: 2, why: InvalidPrefetch, dirty: true, promoted: 1},
		{name: "demand hard fault", act: touch(2), vpn: 2, valid: true, why: InvalidNone, pageIns: 1},
		{name: "prefetch read", act: prefetch(2), vpn: 2, why: InvalidPrefetch, pageIns: 1},
		{name: "readahead", readahead: 2, act: touch(1), vpn: 2, why: InvalidPrefetch, pageIns: 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New()
			phys := mem.New(s, 8)
			params := testParams()
			params.Readahead = c.readahead
			params.FarLatency = 50 * sim.Microsecond
			params.FarCPU = 10 * sim.Microsecond
			as := NewAS("pi", 0, 8, 0, phys, disk.New(s, testDiskCfg()), params)
			as.Far = mem.NewFarTier(8, 1)
			var before Stats
			s.Spawn("t", func(p *sim.Proc) {
				x := &testExec{proc: p}
				if c.far {
					as.Touch(x, c.vpn, true)
					as.InvalidateForRelease(c.vpn)
					if ok, _ := as.TryDemote(c.vpn); !ok {
						t.Error("demotion failed")
					}
				}
				before = as.Stats
				c.act(x, as)
			})
			s.Run(0)
			pte := as.PTE(c.vpn)
			if !pte.Present || pte.Busy || pte.FarSlot != mem.NoFarSlot {
				t.Fatalf("pte = %+v, want resident, idle, out of the far tier", *pte)
			}
			if pte.Valid != c.valid || pte.Why != c.why {
				t.Errorf("valid = %v why = %v, want %v %v", pte.Valid, pte.Why, c.valid, c.why)
			}
			if d := phys.Frame(pte.Frame).Dirty; d != c.dirty {
				t.Errorf("frame dirty = %v, want %v", d, c.dirty)
			}
			if d := as.Stats.PageIns - before.PageIns; d != c.pageIns {
				t.Errorf("PageIns delta = %d, want %d", d, c.pageIns)
			}
			if d := as.Stats.Promotions - before.Promotions; d != c.promoted {
				t.Errorf("Promotions delta = %d, want %d", d, c.promoted)
			}
			if as.FarResident != 0 || as.InFlightPageIns() != 0 {
				t.Errorf("FarResident = %d, in flight = %d, want 0 0", as.FarResident, as.InFlightPageIns())
			}
		})
	}
}

// TestCloseUnwindsPrefetchWaitingOnMemlock closes the sim while a
// prefetch worker, its swap read done, waits to re-take the memlock
// that another process holds. The worker does not own the lock at
// that point, so unwinding it must not release it.
func TestCloseUnwindsPrefetchWaitingOnMemlock(t *testing.T) {
	r := newRig(8, 8)
	x := &testExec{}
	returned := false
	r.s.Spawn("pf", func(p *sim.Proc) {
		x.proc = p
		r.as.Prefetch(x, 3)
		returned = true
	})
	var holder *sim.Proc
	r.s.Spawn("holder", func(p *sim.Proc) {
		holder = p
		p.Sleep(sim.Millisecond) // after the worker dropped the lock for its read
		r.as.Memlock.Acquire(p)
		p.Park()
	})
	r.s.Run(100 * sim.Millisecond)
	if returned || r.as.Stats.PageIns != 1 || r.as.Memlock.Contended != 1 {
		t.Fatalf("before Close: returned %v, %d page-ins, %d contended; want the worker queued on the memlock after its read",
			returned, r.as.Stats.PageIns, r.as.Memlock.Contended)
	}
	r.s.Close()
	if r.s.LiveProcs() != 0 || returned {
		t.Fatalf("after Close: %d live, Prefetch returned %v; want 0, false", r.s.LiveProcs(), returned)
	}
	if r.as.Memlock.TryAcquire(holder) {
		t.Fatal("the memlock was freed by unwinding a worker that did not own it")
	}
}
