package kernel

import (
	"strings"
	"testing"

	"memhogs/internal/mem"
	"memhogs/internal/sim"
	"memhogs/internal/vm"
)

func TestAuditCleanSystem(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("app", 32)
	p.Start(true, func(th *Thread) {
		for vpn := 0; vpn < 16; vpn++ {
			th.Touch(vpn, vpn%2 == 0)
		}
	})
	sys.Run(0)
	if err := sys.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestAuditUnderPressure(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("hog", 1024)
	p.Start(true, func(th *Thread) {
		for vpn := 0; vpn < 1024; vpn++ {
			th.Touch(vpn, true)
		}
	})
	sys.Run(0)
	if err := sys.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestAuditCatchesDoubleOwnership(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("app", 8)
	p.Start(true, func(th *Thread) {
		th.Touch(0, false)
	})
	sys.Run(0)
	// Corrupt the system: allocate a second frame claiming the same
	// page.
	sys.Phys.TryAlloc(p.AS, 0)
	err := sys.Audit()
	if err == nil || !strings.Contains(err.Error(), "owned by frames") {
		t.Fatalf("audit missed double ownership: %v", err)
	}
}

func TestAuditCatchesResidentDrift(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("app", 8)
	p.Start(true, func(th *Thread) {
		th.Touch(0, false)
	})
	sys.Run(0)
	p.AS.Resident++ // corrupt the counter
	err := sys.Audit()
	if err == nil || !strings.Contains(err.Error(), "resident count") {
		t.Fatalf("audit missed resident drift: %v", err)
	}
}

func TestAuditCatchesValidNonPresent(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("app", 8)
	p.Start(true, func(th *Thread) {
		th.Touch(0, false)
	})
	sys.Run(0)
	pte := p.AS.PTE(3)
	pte.Valid = true // valid without a frame
	err := sys.Audit()
	if err == nil || !strings.Contains(err.Error(), "valid but not present") {
		t.Fatalf("audit missed valid-non-present: %v", err)
	}
}

func TestAuditCatchesFreeListMismatch(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("app", 8)
	p.Start(true, func(th *Thread) {
		th.Touch(0, false)
		th.Touch(1, false)
		// Release page 1 properly through the VM so it sits on the
		// free list with identity...
		p.AS.InvalidateForRelease(1)
		p.AS.TryReclaim(1, mem.FreedRelease)
	})
	sys.Run(0)
	if err := sys.Audit(); err != nil {
		t.Fatalf("legitimate rescuable state flagged: %v", err)
	}
	// ...then corrupt the frame's identity.
	pte := p.AS.PTE(1)
	sys.Phys.Frame(pte.Frame).VPN = 7
	err := sys.Audit()
	if err == nil {
		t.Fatal("audit missed stale rescue identity")
	}
}

// TestAuditCatchesBusyWithoutPageIn is the regression test for the
// audit gap this invariant closed: a Busy PTE used to be skipped in
// pass 2, so a stuck Busy bit (with no page-in behind it) was
// invisible until the conservation total happened to drift.
func TestAuditCatchesBusyWithoutPageIn(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("app", 64)
	p.Start(true, func(th *Thread) {
		th.Touch(0, false)
	})
	sys.Run(0)
	// Page 60 is far beyond the readahead window: untouched, no
	// page-in. A stuck Busy bit there must be flagged.
	p.AS.PTE(60).Busy = true
	err := sys.Audit()
	if err == nil || !strings.Contains(err.Error(), "busy without an in-flight page-in") {
		t.Fatalf("audit missed orphaned Busy bit: %v", err)
	}
}

func TestAuditCatchesBusyAndPresent(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("app", 8)
	p.Start(true, func(th *Thread) {
		th.Touch(0, false)
	})
	sys.Run(0)
	p.AS.PTE(0).Busy = true // page 0 is resident: busy+present is illegal
	err := sys.Audit()
	if err == nil || !strings.Contains(err.Error(), "busy and present") {
		t.Fatalf("audit missed busy+present: %v", err)
	}
}

func TestAuditCatchesLeakedFrame(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("app", 64)
	p.Start(true, func(th *Thread) {
		th.Touch(0, false)
	})
	sys.Run(0)
	// Allocate a frame for a page that is neither present nor busy:
	// nothing references it, so it is leaked.
	sys.Phys.TryAlloc(p.AS, 60)
	err := sys.Audit()
	if err == nil || !strings.Contains(err.Error(), "referenced by no PTE") {
		t.Fatalf("audit missed leaked frame: %v", err)
	}
}

func TestAuditAccountsOfflineFrames(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("app", 8)
	p.Start(true, func(th *Thread) {
		th.Touch(0, false)
	})
	sys.Run(0)
	if got := sys.Phys.OfflineNode(-1, 32); got != 32 {
		t.Fatalf("Offline(32) = %d", got)
	}
	if err := sys.Audit(); err != nil {
		t.Fatalf("clean hot-unplugged system flagged: %v", err)
	}
	sys.Phys.OnlineNode(-1, 32)
	if err := sys.Audit(); err != nil {
		t.Fatalf("clean re-plugged system flagged: %v", err)
	}
}

// TestAuditCleanMidRun drives the audit on a cadence while a heavily
// oversubscribed sweep runs, so it sees Busy PTEs, in-flight page-ins,
// and daemon activity at arbitrary event boundaries — the continuous
// mode the chaos driver uses.
func TestAuditCleanMidRun(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("hog", 1024)
	p.Start(true, func(th *Thread) {
		for vpn := 0; vpn < 1024; vpn++ {
			th.Touch(vpn, true)
		}
	})
	ticks := 0
	var auditErr error
	var tick func()
	tick = func() {
		if auditErr != nil {
			return
		}
		if err := sys.Audit(); err != nil {
			auditErr = err
			sys.Sim.Stop()
			return
		}
		ticks++
		sys.Sim.At(sys.Now()+sim.Millisecond, tick)
	}
	sys.Sim.At(sim.Millisecond, tick)
	sys.Run(0)
	if auditErr != nil {
		t.Fatalf("mid-run audit failed after %d clean ticks: %v", ticks, auditErr)
	}
	if ticks < 10 {
		t.Fatalf("only %d audit ticks ran; the run should span many", ticks)
	}
}

func TestMemlockStatsSurface(t *testing.T) {
	// The paper's contention story: daemon batches hold the lock while
	// faults wait. Force contention and check the counters move.
	cfg := TestConfig()
	sys := NewSystem(cfg)
	p := sys.NewProcess("app", 1024)
	p.Start(true, func(th *Thread) {
		for vpn := 0; vpn < 1024; vpn++ {
			th.Touch(vpn, false)
		}
	})
	sys.Run(0)
	l := p.AS.Memlock
	if l.Acquisitions == 0 {
		t.Fatal("no memlock acquisitions recorded")
	}
	if l.HoldTime == 0 {
		t.Fatal("no memlock hold time recorded")
	}
	// With a 4x-oversubscribed sweep the daemon must have contended
	// with the fault path at least occasionally.
	if l.Contended == 0 {
		t.Log("note: no contention on this configuration (acceptable but unusual)")
	}
}

func TestDaemonExecConsumesCPU(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("hog", 1024)
	p.Start(true, func(th *Thread) {
		for vpn := 0; vpn < 1024; vpn++ {
			th.Touch(vpn, false)
		}
	})
	sys.Run(0)
	if sys.DaemonTime[vm.BucketSystem] == 0 {
		t.Fatal("paging daemon consumed no CPU despite heavy stealing")
	}
}

func TestUserFlushBoundsSkew(t *testing.T) {
	// Accumulated user time must flush at the configured threshold:
	// a long run of tiny User() calls cannot let pending time exceed
	// UserFlush.
	cfg := TestConfig()
	sys := NewSystem(cfg)
	p := sys.NewProcess("app", 4)
	var maxPending sim.Time
	p.Start(true, func(th *Thread) {
		for i := 0; i < 10000; i++ {
			th.User(10 * sim.Microsecond)
			if pend := th.PendingUser(); pend > maxPending {
				maxPending = pend
			}
		}
		th.FlushUser()
	})
	sys.Run(0)
	if maxPending > cfg.UserFlush {
		t.Fatalf("pending user time reached %v, above the %v flush threshold",
			maxPending, cfg.UserFlush)
	}
	if p.Times[vm.BucketUser] != 100*sim.Millisecond {
		t.Fatalf("user time = %v, want 100ms", p.Times[vm.BucketUser])
	}
}
