package pageout

import (
	"runtime"
	"testing"

	"memhogs/internal/disk"
	"memhogs/internal/mem"
	"memhogs/internal/sim"
	"memhogs/internal/vm"
)

type testExec struct {
	proc  *sim.Proc
	times [vm.NumBuckets]sim.Time
}

func (e *testExec) Proc() *sim.Proc                 { return e.proc }
func (e *testExec) Account(b vm.Bucket, d sim.Time) { e.times[b] += d }

// SystemThen charges d as a sleep: on a step process (a daemon) it
// returns at once and k runs once d has passed. A zero charge runs k
// at once, as the kernel's does.
func (e *testExec) SystemThen(d sim.Time, k func()) {
	if d <= 0 {
		k()
		return
	}
	e.times[vm.BucketSystem] += d
	e.proc.SleepThen(d, k)
}

// spawnTest is the daemons' pageout.Spawn: a step process whose CPU
// charges are plain sleeps.
func spawnTest(s *sim.Sim) Spawn {
	return func(name string, start func()) vm.Exec {
		return &testExec{proc: s.SpawnStep(name, start)}
	}
}

type rig struct {
	s        *sim.Sim
	phys     *mem.Phys
	dk       *disk.Array
	daemon   *Daemon
	releaser *Releaser
}

func newRig(frames int) *rig { return newRigCost(frames, 6*sim.Microsecond, 2*sim.Microsecond) }

// newRigCost is newRig with the daemon's and the releaser's per-page
// CPU costs.
func newRigCost(frames int, daemonPerPage, releaserPerPage sim.Time) *rig {
	s := sim.New()
	phys := mem.New(s, frames)
	dk := disk.New(s, disk.Config{
		NumDisks: 2, NumAdapters: 1,
		PosTimeMin: 5 * sim.Millisecond, PosTimeMax: 5 * sim.Millisecond,
		SeqPosTime: 600 * sim.Microsecond, TransferTime: 900 * sim.Microsecond,
		Seed: 1,
	})
	daemon := NewNodeDaemon(phys, DaemonConfig{
		MinFree: 4, TargetFree: 8,
		PerPage: daemonPerPage, Batch: 16,
	}, 0)
	phys.LowWater = 4
	phys.NeedMemory = func(int) { daemon.Kick() }
	releaser := NewNodeReleaser(ReleaserConfig{PerPage: releaserPerPage, Batch: 8}, 0)
	daemon.Start(spawnTest(s))
	releaser.Start(spawnTest(s))
	return &rig{s: s, phys: phys, dk: dk, daemon: daemon, releaser: releaser}
}

func (r *rig) newAS(name string, id, pages int) *vm.AS {
	as := vm.NewAS(name, id, pages, int64(id*10000), r.phys, r.dk, vm.Params{
		SoftFaultTime: 30 * sim.Microsecond,
		RescueTime:    80 * sim.Microsecond,
		HardFaultCPU:  200 * sim.Microsecond,
		PageoutCPU:    60 * sim.Microsecond,
	})
	r.daemon.Register(as)
	return as
}

func TestDaemonKeepsMinimumFree(t *testing.T) {
	r := newRig(32)
	as := r.newAS("hog", 0, 128)
	r.s.Spawn("hog", func(p *sim.Proc) {
		x := &testExec{proc: p}
		for vpn := 0; vpn < 100; vpn++ {
			as.Touch(x, vpn, false)
		}
	})
	r.s.Run(0)
	if r.daemon.Stats.Activations == 0 {
		t.Fatal("daemon never activated under memory pressure")
	}
	if r.daemon.Stats.Stolen == 0 {
		t.Fatal("daemon stole nothing")
	}
	if r.phys.FreeCount() == 0 {
		t.Fatalf("free list empty at end: daemon failed (free=%d)", r.phys.FreeCount())
	}
}

func TestDaemonInvalidatesBeforeStealing(t *testing.T) {
	r := newRig(32)
	as := r.newAS("hog", 0, 128)
	r.s.Spawn("hog", func(p *sim.Proc) {
		x := &testExec{proc: p}
		for vpn := 0; vpn < 100; vpn++ {
			as.Touch(x, vpn, false)
		}
	})
	r.s.Run(0)
	if r.daemon.Stats.Invalidations == 0 {
		t.Fatal("daemon never ran its reference-bit (invalidation) pass")
	}
	// Invariant of the clock: a page is only stolen after having been
	// invalidated, so invalidations >= steals is expected for a
	// sweep-through workload.
	if r.daemon.Stats.Invalidations < r.daemon.Stats.Stolen/2 {
		t.Fatalf("implausible invalidate/steal ratio: %+v", r.daemon.Stats)
	}
}

func TestDaemonCausesSoftFaultsForActivePages(t *testing.T) {
	r := newRig(32)
	as := r.newAS("worker", 0, 256)
	// A process with a small hot set re-touches it while a sweeping
	// access pattern forces the daemon to run: the hot pages get
	// invalidated and must be soft-faulted back.
	r.s.Spawn("worker", func(p *sim.Proc) {
		x := &testExec{proc: p}
		for round := 0; round < 20; round++ {
			for vpn := 0; vpn < 4; vpn++ { // hot set
				as.Touch(x, vpn, false)
			}
			for k := 0; k < 8; k++ { // sweep
				as.Touch(x, 8+round*8+k, false)
			}
		}
	})
	r.s.Run(0)
	if as.Stats.SoftFaultsDaemon == 0 {
		t.Fatalf("no daemon-caused soft faults; stats=%+v daemon=%+v", as.Stats, r.daemon.Stats)
	}
}

func TestDaemonStealsFromAllProcesses(t *testing.T) {
	r := newRig(32)
	hog := r.newAS("hog", 0, 256)
	victim := r.newAS("victim", 1, 8)
	r.s.Spawn("victim", func(p *sim.Proc) {
		x := &testExec{proc: p}
		for vpn := 0; vpn < 8; vpn++ {
			victim.Touch(x, vpn, false)
		}
		// Then go idle (like the paper's editor waiting for input).
		p.Sleep(10 * sim.Second)
	})
	r.s.Spawn("hog", func(p *sim.Proc) {
		x := &testExec{proc: p}
		p.Sleep(200 * sim.Millisecond) // let the victim load its pages
		for round := 0; round < 3; round++ {
			for vpn := 0; vpn < 200; vpn++ {
				hog.Touch(x, vpn, false)
			}
		}
	})
	r.s.Run(0)
	if victim.Stats.StolenPages == 0 {
		t.Fatalf("global replacement never stole from the idle victim; victim=%+v", victim.Stats)
	}
}

func TestReleaserFreesRequestedPages(t *testing.T) {
	r := newRig(64)
	as := r.newAS("app", 0, 64)
	r.s.Spawn("app", func(p *sim.Proc) {
		x := &testExec{proc: p}
		for vpn := 0; vpn < 16; vpn++ {
			as.Touch(x, vpn, false)
		}
		vpns := make([]int, 8)
		for i := range vpns {
			vpns[i] = i
			as.InvalidateForRelease(i)
		}
		r.releaser.Enqueue(as, vpns, nil)
	})
	r.s.Run(0)
	if r.releaser.Stats.Freed != 8 {
		t.Fatalf("releaser freed %d, want 8 (%+v)", r.releaser.Stats.Freed, r.releaser.Stats)
	}
	if as.Resident != 8 {
		t.Fatalf("Resident = %d, want 8", as.Resident)
	}
	if r.phys.Stats().FreedByRelease != 8 {
		t.Fatalf("phys counted %d release-frees", r.phys.Stats().FreedByRelease)
	}
}

func TestReleaserSkipsReferencedPages(t *testing.T) {
	r := newRig(64)
	as := r.newAS("app", 0, 64)
	r.s.Spawn("app", func(p *sim.Proc) {
		x := &testExec{proc: p}
		as.Touch(x, 0, false)
		as.Touch(x, 1, false)
		as.InvalidateForRelease(0)
		as.InvalidateForRelease(1)
		// Page 0 is referenced again before the releaser runs.
		as.Touch(x, 0, false)
		r.releaser.Enqueue(as, []int{0, 1}, nil)
	})
	r.s.Run(0)
	if r.releaser.Stats.Freed != 1 || r.releaser.Stats.SkippedRef != 1 {
		t.Fatalf("stats = %+v, want 1 freed / 1 skipped", r.releaser.Stats)
	}
	if !as.IsResident(0) || as.IsResident(1) {
		t.Fatal("wrong page freed")
	}
}

func TestReleaserWritesBackDirtyPages(t *testing.T) {
	r := newRig(64)
	as := r.newAS("app", 0, 64)
	r.s.Spawn("app", func(p *sim.Proc) {
		x := &testExec{proc: p}
		as.Touch(x, 0, true) // dirty
		as.Touch(x, 1, false)
		as.InvalidateForRelease(0)
		as.InvalidateForRelease(1)
		r.releaser.Enqueue(as, []int{0, 1}, nil)
	})
	r.s.Run(0)
	if r.releaser.Stats.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", r.releaser.Stats.Writebacks)
	}
	if r.dk.Stats().Writes != 1 {
		t.Fatalf("disk writes = %d, want 1", r.dk.Stats().Writes)
	}
}

func TestReleaserSkipsNonResident(t *testing.T) {
	r := newRig(64)
	as := r.newAS("app", 0, 64)
	r.s.Spawn("app", func(p *sim.Proc) {
		r.releaser.Enqueue(as, []int{3, 4}, nil)
	})
	r.s.Run(0)
	if r.releaser.Stats.SkippedGone != 2 {
		t.Fatalf("SkippedGone = %d, want 2", r.releaser.Stats.SkippedGone)
	}
}

func TestReleasedPagesAreRescuable(t *testing.T) {
	r := newRig(64)
	as := r.newAS("app", 0, 64)
	var out vm.Outcome
	r.s.Spawn("app", func(p *sim.Proc) {
		x := &testExec{proc: p}
		as.Touch(x, 0, false)
		as.InvalidateForRelease(0)
		r.releaser.Enqueue(as, []int{0}, nil)
		p.Sleep(10 * sim.Millisecond) // let the releaser run
		out = as.Touch(x, 0, false)   // rescue from the free list
	})
	r.s.Run(0)
	if out != vm.RescueFault {
		t.Fatalf("touch after release = %v, want rescue", out)
	}
	if r.phys.Stats().RescuedRelease != 1 {
		t.Fatalf("phys stats = %+v", r.phys.Stats())
	}
}

func TestMaxRSSTrimming(t *testing.T) {
	r := newRig(64)
	as := r.newAS("limited", 0, 64)
	as.MaxRSS = 8
	as.OverLimit = r.daemon.Kick
	r.s.Spawn("limited", func(p *sim.Proc) {
		x := &testExec{proc: p}
		for vpn := 0; vpn < 32; vpn++ {
			as.Touch(x, vpn, false)
		}
		// Give the daemon a chance to trim.
		p.Sleep(100 * sim.Millisecond)
	})
	r.s.Run(0)
	if r.daemon.Stats.Trims == 0 {
		t.Fatalf("no maxrss trimming happened: %+v (resident=%d)", r.daemon.Stats, as.Resident)
	}
}

func TestPrefetchedPagesGetClockGrace(t *testing.T) {
	// A prefetched-but-unreferenced page (Valid=false, Why=Prefetch)
	// must survive one clock pass: the daemon marks it as a candidate
	// first and steals it only on a later pass.
	r := newRig(32)
	as := r.newAS("app", 0, 64)
	r.s.Spawn("app", func(p *sim.Proc) {
		x := &testExec{proc: p}
		// Prefetch page 0; never reference it.
		as.Prefetch(x, 0)
		// Force memory pressure so the daemon scans.
		for vpn := 1; vpn < 40; vpn++ {
			as.Touch(x, vpn, false)
		}
	})
	r.s.Run(0)
	// Eventually it may be stolen, but only after being marked: the
	// invariant checked here is that invalidations (marking passes)
	// precede steals for such pages — the daemon recorded at least as
	// many invalidations as steals overall in this workload, where
	// every page is swept exactly once.
	if r.daemon.Stats.Stolen > 0 && r.daemon.Stats.Invalidations == 0 {
		t.Fatal("daemon stole without any marking pass")
	}
}

func TestDaemonWritesBackDirtyStolenPages(t *testing.T) {
	r := newRig(24)
	as := r.newAS("app", 0, 64)
	r.s.Spawn("app", func(p *sim.Proc) {
		x := &testExec{proc: p}
		for vpn := 0; vpn < 60; vpn++ {
			as.Touch(x, vpn, true) // dirty everything
		}
	})
	r.s.Run(0)
	if r.daemon.Stats.Stolen == 0 {
		t.Skip("no stealing on this configuration")
	}
	if r.daemon.Stats.Writebacks == 0 {
		t.Fatal("dirty pages stolen without writeback")
	}
	if r.dk.Stats().Writes == 0 {
		t.Fatal("no disk writes submitted")
	}
}

func TestReleaserBatchesBoundLockHolds(t *testing.T) {
	// The releaser must not hold the address-space lock for the whole
	// request: with a batch size of 8 and a 64-page request, the lock
	// is taken at least 8 times.
	r := newRig(128)
	as := r.newAS("app", 0, 128)
	r.s.Spawn("app", func(p *sim.Proc) {
		x := &testExec{proc: p}
		for vpn := 0; vpn < 64; vpn++ {
			as.Touch(x, vpn, false)
		}
		vpns := make([]int, 64)
		for i := range vpns {
			vpns[i] = i
			as.InvalidateForRelease(i)
		}
		before := as.Memlock.Acquisitions
		r.releaser.Enqueue(as, vpns, nil)
		p.Sleep(100 * sim.Millisecond)
		if got := as.Memlock.Acquisitions - before; got < 8 {
			t.Errorf("releaser took the lock %d times for 64 pages; batching broken", got)
		}
	})
	r.s.Run(0)
	if r.releaser.Stats.Freed != 64 {
		t.Fatalf("freed %d, want 64", r.releaser.Stats.Freed)
	}
}

func TestDaemonDisabled(t *testing.T) {
	r := newRig(16)
	r.daemon.Enabled = false
	as := r.newAS("hog", 0, 64)
	r.s.Spawn("hog", func(p *sim.Proc) {
		x := &testExec{proc: p}
		for vpn := 0; vpn < 14; vpn++ {
			as.Touch(x, vpn, false)
		}
	})
	r.s.Run(0)
	if r.daemon.Stats.Stolen != 0 {
		t.Fatal("disabled daemon stole pages")
	}
}

// TestFreeChargesDoNotNest runs the daemon and the releaser with a
// zero per-page cost, so every page's charge ends at once, over
// batches of 256 frames and 64 pages. Their step loops must go on in
// the same call rather than nest one per page: every page they free
// is freed at the same stack depth.
func TestFreeChargesDoNotNest(t *testing.T) {
	r := newRigCost(96, 0, 0)
	r.daemon.cfg.Batch = 256
	r.releaser.cfg.Batch = 64
	as := r.newAS("app", 0, 256)
	lo, hi := -1, -1
	pcs := make([]uintptr, 4096)
	r.phys.FreeChanged = func(int) {
		d := runtime.Callers(0, pcs)
		if lo < 0 || d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	r.s.Spawn("app", func(p *sim.Proc) {
		x := &testExec{proc: p}
		for vpn := 0; vpn < 200; vpn++ {
			as.Touch(x, vpn, false)
		}
		vpns := make([]int, 0, 64)
		for vpn := 200 - 64; vpn < 200; vpn++ {
			if as.IsResident(vpn) {
				as.InvalidateForRelease(vpn)
				vpns = append(vpns, vpn)
			}
		}
		r.releaser.Enqueue(as, vpns, nil)
	})
	r.s.Run(0)
	if r.daemon.Stats.Stolen < 64 || r.releaser.Stats.Freed < 32 {
		t.Fatalf("too little freed to tell: daemon %+v, releaser %+v", r.daemon.Stats, r.releaser.Stats)
	}
	if hi-lo > 16 {
		t.Fatalf("frees ran at stack depths %d to %d: the step loops nest a call per page", lo, hi)
	}
}
