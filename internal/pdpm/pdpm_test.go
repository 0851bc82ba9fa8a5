package pdpm

import (
	"testing"

	"memhogs/internal/disk"
	"memhogs/internal/mem"
	"memhogs/internal/pageout"
	"memhogs/internal/sim"
	"memhogs/internal/vm"
)

type testExec struct {
	proc  *sim.Proc
	times [vm.NumBuckets]sim.Time
}

func (e *testExec) Proc() *sim.Proc                 { return e.proc }
func (e *testExec) Account(b vm.Bucket, d sim.Time) { e.times[b] += d }
func (e *testExec) SystemThen(d sim.Time, k func()) {
	e.times[vm.BucketSystem] += d
	e.proc.SleepThen(d, k)
}

// prefetch runs one prefetch request on x's process and awaits it.
func (r *rig) prefetch(x *testExec, vpn int) {
	r.pm.NewWorker(x, func() {}).Prefetch(vpn)
	x.proc.Await()
}

// release runs one release request on x's process and awaits it.
func (r *rig) release(x *testExec, vpns, prios []int) {
	r.pm.NewWorker(x, func() {}).Release(vpns, prios)
	x.proc.Await()
}

type rig struct {
	s        *sim.Sim
	phys     *mem.Phys
	dk       *disk.Array
	releaser *pageout.Releaser
	as       *vm.AS
	pm       *PM
}

func newRig(frames, pages int, cfg Config) *rig {
	s := sim.New()
	phys := mem.New(s, frames)
	dk := disk.New(s, disk.Config{
		NumDisks: 2, NumAdapters: 1,
		PosTimeMin: 5 * sim.Millisecond, PosTimeMax: 5 * sim.Millisecond,
		SeqPosTime: 600 * sim.Microsecond, TransferTime: 900 * sim.Microsecond,
		Seed: 1,
	})
	releaser := pageout.NewNodeReleaser(pageout.ReleaserConfig{
		PerPage: 2 * sim.Microsecond, Batch: 8,
	}, 0)
	releaser.Start(func(name string, start func()) vm.Exec {
		return &testExec{proc: s.SpawnStep(name, start)}
	})
	as := vm.NewAS("app", 0, pages, 0, phys, dk, vm.Params{
		SoftFaultTime: 30 * sim.Microsecond,
		RescueTime:    80 * sim.Microsecond,
		HardFaultCPU:  200 * sim.Microsecond,
	})
	if cfg.PrefetchCall == 0 {
		cfg.PrefetchCall = 20 * sim.Microsecond
	}
	if cfg.ReleaseCall == 0 {
		cfg.ReleaseCall = 15 * sim.Microsecond
	}
	pm := Attach(as, phys, releaser, cfg)
	return &rig{s: s, phys: phys, dk: dk, releaser: releaser, as: as, pm: pm}
}

func (r *rig) inProc(body func(x *testExec)) {
	r.s.Spawn("app", func(p *sim.Proc) {
		body(&testExec{proc: p})
	})
	r.s.Run(0)
}

func TestBitmapTracksResidency(t *testing.T) {
	r := newRig(16, 64, Config{MinFree: 2})
	r.inProc(func(x *testExec) {
		r.as.Touch(x, 3, false)
		if !r.pm.Shared().Test(3) {
			t.Error("bit not set after page-in")
		}
		if r.pm.Shared().Test(4) {
			t.Error("bit set for untouched page")
		}
	})
}

func TestSharedPageUsageAndLimit(t *testing.T) {
	r := newRig(16, 64, Config{MinFree: 2})
	r.inProc(func(x *testExec) {
		for vpn := 0; vpn < 4; vpn++ {
			r.as.Touch(x, vpn, false)
		}
		sp := r.pm.Shared()
		if sp.Current != 4 {
			t.Errorf("Current = %d, want 4", sp.Current)
		}
		// Equation (1): current + free - minfree (maxrss unlimited).
		want := 4 + r.phys.FreeCount() - 2
		if sp.Limit != want {
			t.Errorf("Limit = %d, want %d", sp.Limit, want)
		}
	})
}

func TestLimitRespectsMaxRSS(t *testing.T) {
	r := newRig(16, 64, Config{MinFree: 2, MaxRSS: 6})
	r.inProc(func(x *testExec) {
		r.as.Touch(x, 0, false)
		if r.pm.Shared().Limit != 6 {
			t.Errorf("Limit = %d, want maxrss 6", r.pm.Shared().Limit)
		}
	})
}

func TestSharedPageIsStaleWithoutActivity(t *testing.T) {
	r := newRig(16, 64, Config{MinFree: 2})
	r.inProc(func(x *testExec) {
		r.as.Touch(x, 0, false)
		before := r.pm.Shared().Limit
		// Free memory shrinks behind the process's back (another
		// process allocating): the limit word must NOT move until this
		// process has memory-system activity.
		for i := 0; i < 8; i++ {
			r.phys.TryAlloc(nil, 0)
		}
		if r.pm.Shared().Limit != before {
			t.Fatal("shared page updated without memory activity")
		}
		r.as.Touch(x, 1, false) // activity
		if r.pm.Shared().Limit >= before {
			t.Fatalf("limit did not drop after activity: %d >= %d", r.pm.Shared().Limit, before)
		}
	})
}

func TestImmediateUpdatesAblation(t *testing.T) {
	r := newRig(16, 64, Config{MinFree: 2, ImmediateUpdates: true})
	r.inProc(func(x *testExec) {
		r.as.Touch(x, 0, false)
		if r.pm.Shared().Current != 1 {
			t.Fatalf("Current = %d, want 1", r.pm.Shared().Current)
		}
	})
}

func TestPrefetchStatsBreakdown(t *testing.T) {
	r := newRig(4, 64, Config{MinFree: 0})
	r.inProc(func(x *testExec) {
		r.prefetch(x, 0) // read
		r.prefetch(x, 0) // already in
		r.prefetch(x, 1)
		r.prefetch(x, 2)
		r.prefetch(x, 3)
		r.prefetch(x, 4) // memory full: discarded
	})
	st := r.pm.Stats
	if st.PrefetchRead != 4 || st.PrefetchAlreadyIn != 1 || st.PrefetchDiscarded != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !r.pm.Shared().Test(0) || r.pm.Shared().Test(4) {
		t.Fatal("bitmap wrong after prefetches")
	}
}

func TestReleaseClearsBitsImmediately(t *testing.T) {
	r := newRig(16, 64, Config{MinFree: 2})
	r.inProc(func(x *testExec) {
		r.as.Touch(x, 0, false)
		r.as.Touch(x, 1, false)
		r.release(x, []int{0, 1}, nil)
		// Bits are cleared at request time, before the releaser runs.
		if r.pm.Shared().Test(0) || r.pm.Shared().Test(1) {
			t.Error("bits not cleared at release-request time")
		}
	})
	// After the sim drains, the releaser has freed both.
	if r.releaser.Stats.Freed != 2 {
		t.Fatalf("releaser freed %d, want 2", r.releaser.Stats.Freed)
	}
}

func TestReferenceAfterReleaseRequestSetsBitAgain(t *testing.T) {
	r := newRig(16, 64, Config{MinFree: 2})
	r.inProc(func(x *testExec) {
		r.as.Touch(x, 0, false)
		r.release(x, []int{0}, nil)
		// Touch before the releaser runs: the soft fault re-sets the
		// bit, and the releaser must then skip the page.
		r.as.Touch(x, 0, false)
		if !r.pm.Shared().Test(0) {
			t.Error("bit not re-set by reference after release request")
		}
	})
	if r.releaser.Stats.SkippedRef != 1 || r.releaser.Stats.Freed != 0 {
		t.Fatalf("releaser stats = %+v", r.releaser.Stats)
	}
}

func TestPopCount(t *testing.T) {
	r := newRig(16, 64, Config{MinFree: 2})
	r.inProc(func(x *testExec) {
		for vpn := 0; vpn < 5; vpn++ {
			r.as.Touch(x, vpn, false)
		}
		if n := r.pm.Shared().PopCount(); n != 5 {
			t.Errorf("PopCount = %d, want 5", n)
		}
	})
}

func TestThresholdNotification(t *testing.T) {
	r := newRig(64, 64, Config{MinFree: 2, NotifyThreshold: 4})
	r.inProc(func(x *testExec) {
		r.as.Touch(x, 0, false)
		before := r.pm.Shared().Limit
		// Drain free memory behind the process's back; crossing the
		// threshold must refresh the shared page without any activity
		// from the owning process.
		for i := 0; i < 8; i++ {
			r.phys.TryAlloc(nil, i)
		}
		// Simulate the kernel's broadcast.
		r.pm.FreeMemChanged(r.phys.FreeCount())
		if r.pm.Shared().Limit >= before {
			t.Fatalf("threshold notification did not refresh: %d >= %d",
				r.pm.Shared().Limit, before)
		}
	})
}

func TestThresholdNotificationBelowThresholdNoRefresh(t *testing.T) {
	r := newRig(64, 64, Config{MinFree: 2, NotifyThreshold: 100})
	r.inProc(func(x *testExec) {
		r.as.Touch(x, 0, false)
		refreshes := r.pm.Stats.SharedRefreshes
		r.phys.TryAlloc(nil, 1)
		r.pm.FreeMemChanged(r.phys.FreeCount())
		if r.pm.Stats.SharedRefreshes != refreshes {
			t.Fatal("refreshed below the threshold")
		}
	})
}

func TestPrefetchChargesSyscallTime(t *testing.T) {
	r := newRig(16, 64, Config{MinFree: 2})
	var sys sim.Time
	r.inProc(func(x *testExec) {
		r.prefetch(x, 0)
		sys = x.times[vm.BucketSystem]
	})
	if sys < 20*sim.Microsecond {
		t.Fatalf("prefetch system time %v, want >= syscall cost", sys)
	}
}
