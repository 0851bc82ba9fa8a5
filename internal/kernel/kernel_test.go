package kernel

import (
	"testing"

	"memhogs/internal/sim"
	"memhogs/internal/vm"
)

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NCPU != 4 {
		t.Errorf("NCPU = %d, want 4 (Origin 200)", cfg.NCPU)
	}
	if cfg.PageSize != 16<<10 {
		t.Errorf("PageSize = %d, want 16 KB", cfg.PageSize)
	}
	if got := cfg.MemBytes(); got != 75<<20 {
		t.Errorf("user memory = %d bytes, want 75 MB", got)
	}
	if cfg.Disk.NumDisks != 10 || cfg.Disk.NumAdapters != 5 {
		t.Errorf("disks = %d/%d adapters, want 10/5", cfg.Disk.NumDisks, cfg.Disk.NumAdapters)
	}
}

func TestConfigValidateRejectsBadValues(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NCPU = 0 },
		func(c *Config) { c.PageSize = 1000 }, // not a power of two
		func(c *Config) { c.UserMemPages = 0 },
		func(c *Config) { c.MinFreePages = -1 },
		func(c *Config) { c.TargetFreePages = c.MinFreePages - 1 },
		func(c *Config) { c.Disk.NumDisks = 0 },
		func(c *Config) { c.CPUQuantum = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config passed validation", i)
		}
	}
}

func TestPagesFor(t *testing.T) {
	cfg := DefaultConfig()
	if n := cfg.PagesFor(1); n != 1 {
		t.Errorf("PagesFor(1) = %d, want 1", n)
	}
	if n := cfg.PagesFor(16 << 10); n != 1 {
		t.Errorf("PagesFor(16K) = %d, want 1", n)
	}
	if n := cfg.PagesFor(16<<10 + 1); n != 2 {
		t.Errorf("PagesFor(16K+1) = %d, want 2", n)
	}
}

func TestProcessRunsAndAccountsUserTime(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("app", 16)
	p.Start(true, func(th *Thread) {
		th.User(5 * sim.Millisecond)
	})
	sys.Run(0)
	if !p.Done {
		t.Fatal("process did not finish")
	}
	if p.Times[vm.BucketUser] != 5*sim.Millisecond {
		t.Fatalf("user time = %v, want 5ms", p.Times[vm.BucketUser])
	}
}

func TestTouchFaultsAndAccounts(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("app", 16)
	var out vm.Outcome
	p.Start(true, func(th *Thread) {
		out = th.Touch(0, false)
	})
	sys.Run(0)
	if out != vm.HardFault {
		t.Fatalf("first touch = %v, want hard", out)
	}
	if p.Times[vm.BucketSystem] == 0 || p.Times[vm.BucketStallIO] == 0 {
		t.Fatalf("times = %v", p.Times)
	}
}

func TestCPUContentionAccounted(t *testing.T) {
	cfg := TestConfig()
	cfg.NCPU = 1
	sys := NewSystem(cfg)
	a := sys.NewProcess("a", 4)
	b := sys.NewProcess("b", 4)
	a.Start(false, func(th *Thread) {
		th.User(50 * sim.Millisecond)
		th.FlushUser()
	})
	b.Start(false, func(th *Thread) {
		th.User(50 * sim.Millisecond)
		th.FlushUser()
	})
	sys.Run(0)
	stall := a.Times[vm.BucketStallCPU] + b.Times[vm.BucketStallCPU]
	if stall == 0 {
		t.Fatal("two CPU-bound processes on one CPU recorded no CPU stall")
	}
	// Serialized on one CPU: 100ms of work ends at 100ms.
	if end := sys.Now(); end != 100*sim.Millisecond {
		t.Fatalf("finished at %v, want 100ms", end)
	}
}

func TestFourCPUsRunInParallel(t *testing.T) {
	cfg := TestConfig()
	sys := NewSystem(cfg) // 4 CPUs
	for i := 0; i < 4; i++ {
		p := sys.NewProcess("p", 4)
		p.Start(false, func(th *Thread) {
			th.User(50 * sim.Millisecond)
			th.FlushUser()
		})
	}
	sys.Run(0)
	if end := sys.Now(); end != 50*sim.Millisecond {
		t.Fatalf("4 procs on 4 CPUs finished at %v, want 50ms", end)
	}
}

func TestWorkerThreadTimesSeparate(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("app", 16)
	p.Start(false, func(th *Thread) {
		th.User(sim.Millisecond)
	})
	var x vm.Exec
	x = p.SpawnWorker("worker", func() {
		x.SystemThen(7*sim.Millisecond, func() {})
	})
	sys.Run(0)
	if p.WorkerTimes[vm.BucketSystem] != 7*sim.Millisecond {
		t.Fatalf("worker system = %v, want 7ms", p.WorkerTimes[vm.BucketSystem])
	}
	if p.Times[vm.BucketUser] != sim.Millisecond || p.Times[vm.BucketSystem] != 0 {
		t.Fatalf("main user/system = %v/%v, want 1ms/0 (worker time leaked in)",
			p.Times[vm.BucketUser], p.Times[vm.BucketSystem])
	}
}

func TestStopSimOnProcessExit(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("app", 4)
	p.Start(true, func(th *Thread) { th.User(sim.Millisecond) })
	other := sys.NewProcess("bg", 4)
	other.Start(false, func(th *Thread) {
		for i := 0; i < 1000; i++ {
			th.SleepIdle(sim.Second)
		}
	})
	end := sys.Run(10 * sim.Second)
	if end >= 10*sim.Second {
		t.Fatalf("sim did not stop when the measured app finished (end=%v)", end)
	}
}

func TestQuantumInterleaving(t *testing.T) {
	// Two CPU-bound threads on one CPU must interleave at quantum
	// granularity, not run-to-completion: both finish near the end,
	// not one at 50ms and one at 100ms.
	cfg := TestConfig()
	cfg.NCPU = 1
	sys := NewSystem(cfg)
	var doneA, doneB sim.Time
	a := sys.NewProcess("a", 4)
	a.Start(false, func(th *Thread) {
		for i := 0; i < 5; i++ {
			th.User(10 * sim.Millisecond)
			th.FlushUser()
		}
		doneA = th.Now()
	})
	b := sys.NewProcess("b", 4)
	b.Start(false, func(th *Thread) {
		for i := 0; i < 5; i++ {
			th.User(10 * sim.Millisecond)
			th.FlushUser()
		}
		doneB = th.Now()
	})
	sys.Run(0)
	gap := doneA - doneB
	if gap < 0 {
		gap = -gap
	}
	if gap > 15*sim.Millisecond {
		t.Fatalf("no interleaving: finished %v apart (A=%v B=%v)", gap, doneA, doneB)
	}
}

func TestMemoryPressureEndToEnd(t *testing.T) {
	// A process sweeping more pages than physical memory must
	// complete, with the daemon recycling memory behind it.
	cfg := TestConfig() // 256 frames
	sys := NewSystem(cfg)
	p := sys.NewProcess("sweep", 1024)
	p.Start(true, func(th *Thread) {
		for vpn := 0; vpn < 1024; vpn++ {
			th.Touch(vpn, false)
			th.User(10 * sim.Microsecond)
		}
	})
	sys.Run(0)
	if !p.Done {
		t.Fatal("sweep did not complete")
	}
	// Swap clustering (readahead 8) turns the 1024 page-ins into ~128
	// demand faults; every page still arrives from disk exactly once.
	if p.AS.Stats.PageIns != 1024 {
		t.Fatalf("page-ins = %d, want 1024", p.AS.Stats.PageIns)
	}
	if p.AS.Stats.HardFaults > 256 || p.AS.Stats.HardFaults < int64(1024/cfg.VM.Readahead) {
		t.Fatalf("hard faults = %d, expected clustering to cut them to ~%d",
			p.AS.Stats.HardFaults, 1024/cfg.VM.Readahead)
	}
	if sys.Daemon.Stats.Stolen == 0 {
		t.Fatal("daemon never stole despite 4x oversubscription")
	}
	if p.AS.Resident > cfg.UserMemPages {
		t.Fatalf("resident %d exceeds physical memory %d", p.AS.Resident, cfg.UserMemPages)
	}
}

func TestElapsedAndTotalTime(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("app", 4)
	p.Start(true, func(th *Thread) {
		th.User(2 * sim.Millisecond)
		th.SleepIdle(3 * sim.Millisecond)
	})
	sys.Run(0)
	if p.Elapsed() != 5*sim.Millisecond {
		t.Fatalf("elapsed = %v, want 5ms", p.Elapsed())
	}
	if p.TotalTime() != 2*sim.Millisecond {
		t.Fatalf("total accounted = %v, want 2ms", p.TotalTime())
	}
}

func TestAttachPM(t *testing.T) {
	sys := NewSystem(TestConfig())
	p := sys.NewProcess("app", 32)
	pm := p.AttachPM(0)
	p.Start(true, func(th *Thread) {
		th.Touch(0, false)
		if !pm.Shared().Test(0) {
			t.Error("PM bitmap not updated through kernel touch")
		}
	})
	sys.Run(0)
}

// TestFreeThresholdsDerived changes only MinFreePages and
// TargetFreePages and checks that both consumers follow: the PM's
// limit word (equation 1) reserves MinFreePages, and the paging daemon
// wakes exactly when free memory falls below MinFreePages and steals
// until it reaches TargetFreePages.
func TestFreeThresholdsDerived(t *testing.T) {
	cfg := TestConfig() // 256 frames
	cfg.MinFreePages = 64
	cfg.TargetFreePages = 96
	sys := NewSystem(cfg)
	defer sys.Sim.Close()
	p := sys.NewProcess("app", cfg.UserMemPages)
	pm := p.AttachPM(0)
	if got, want := pm.Shared().Limit, cfg.UserMemPages-cfg.MinFreePages; got != want {
		t.Errorf("PM limit = %d, want %d (all frames free minus MinFreePages)", got, want)
	}
	p.Start(true, func(th *Thread) {
		// Each hard fault brings in a Readahead cluster of pages.
		vpn := 0
		for ; sys.Phys.FreeCount() > cfg.MinFreePages; vpn++ {
			th.Touch(vpn, false)
		}
		th.SleepIdle(100 * sim.Millisecond)
		if free := sys.Phys.FreeCount(); free != cfg.MinFreePages {
			t.Errorf("free = %d after the fill, want exactly MinFreePages %d", free, cfg.MinFreePages)
		}
		if n := sys.Daemon.Stats.Activations; n != 0 {
			t.Errorf("daemon woke %d times with free memory at MinFreePages", n)
		}
		for p.AS.IsResident(vpn) {
			vpn++
		}
		th.Touch(vpn, false)
		th.SleepIdle(100 * sim.Millisecond)
		if n := sys.Daemon.Stats.Activations; n != 1 {
			t.Errorf("daemon woke %d times after free memory fell below MinFreePages, want 1", n)
		}
		if free := sys.Phys.FreeCount(); free < cfg.TargetFreePages {
			t.Errorf("free after the daemon's activation = %d, want >= TargetFreePages %d", free, cfg.TargetFreePages)
		}
	})
	sys.Run(0)
	if !p.Done {
		t.Fatal("process did not complete")
	}
}
