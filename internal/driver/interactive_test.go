package driver

import (
	"testing"

	"memhogs/internal/compiler"
	"memhogs/internal/kernel"
	"memhogs/internal/lang"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/workload"
)

func TestAloneResponseIsComputeBound(t *testing.T) {
	cfg := kernel.TestConfig()
	resp := AloneResponse(cfg, sim.Second, 5)
	// 64 pages x 15us = 960us of computation; allow scheduling noise.
	if resp < 900*sim.Microsecond || resp > 2*sim.Millisecond {
		t.Fatalf("alone response = %v, want ~960us", resp)
	}
}

func TestInteractiveStatsDropColdSweep(t *testing.T) {
	sys := kernel.NewSystem(kernel.TestConfig())
	it := StartInteractive(sys, 100*sim.Millisecond)
	defer sys.Sim.Close()
	sys.Run(2 * sim.Second)
	st := it.Stats()
	if st.Sweeps < 5 {
		t.Fatalf("sweeps = %d", st.Sweeps)
	}
	// After the first (cold) sweep is dropped, steady-state sweeps on
	// an idle machine read nothing from disk.
	if st.MeanPageIns != 0 {
		t.Fatalf("steady-state page-ins = %v, want 0", st.MeanPageIns)
	}
	if st.MeanResponse <= 0 || st.MaxResponse < st.MeanResponse {
		t.Fatalf("response stats inconsistent: %+v", st)
	}
}

func TestInteractiveStatsEmptyWhenNoSweeps(t *testing.T) {
	sys := kernel.NewSystem(kernel.TestConfig())
	it := StartInteractive(sys, sim.Second)
	defer sys.Sim.Close()
	sys.Run(sim.Millisecond) // too short for even one sweep
	st := it.Stats()
	if st.Sweeps != 0 || st.MeanResponse != 0 {
		t.Fatalf("expected empty stats, got %+v", st)
	}
}

func TestRunCompiledCustomProgram(t *testing.T) {
	prog := lang.MustParse(`
program custom
param N
array a[4096] of float64
for i = 0 to N-1 {
    a[i] = a[i] + 1 @ 20
}
`)
	cfg := TestRunConfig(rt.ModeBuffered)
	tgt := compiler.DefaultTarget(cfg.Kernel.PageSize, cfg.Kernel.UserMemPages)
	comp, err := compiler.Compile(prog, tgt)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Params = map[string]int64{"N": 4096}
	r, err := RunCompiled("custom", comp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Done || r.VM.PageIns == 0 {
		t.Fatalf("custom program did not run: %+v", r.VM)
	}
	if r.Releaser.Freed == 0 {
		t.Fatal("buffered custom program released nothing")
	}
}

func TestMemlockStatsInResult(t *testing.T) {
	spec := mustScaled(t, "mgrid")
	r, err := Run(spec, TestRunConfig(rt.ModePrefetch))
	if err != nil {
		t.Fatal(err)
	}
	if r.MemlockAcquisitions == 0 || r.MemlockHold == 0 {
		t.Fatalf("memlock stats missing: %+v acq, %v hold",
			r.MemlockAcquisitions, r.MemlockHold)
	}
}

func TestOnSystemHook(t *testing.T) {
	spec := mustScaled(t, "matvec")
	cfg := TestRunConfig(rt.ModeOriginal)
	called := false
	cfg.OnSystem = func(sys *kernel.System) {
		called = true
		if sys.Phys.NumFrames() != cfg.Kernel.UserMemPages {
			t.Errorf("hook got wrong system")
		}
	}
	if _, err := Run(spec, cfg); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("OnSystem hook not invoked")
	}
}

func TestTargetTweakApplied(t *testing.T) {
	spec := mustScaled(t, "fftpde")
	cfg := TestRunConfig(rt.ModeBuffered)
	cfg.TargetTweak = func(tg *compiler.Target) { tg.Adaptive = true }
	r, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.CompileStats.MisdetectedReuse != 0 {
		t.Fatalf("adaptive tweak ignored: %+v", r.CompileStats)
	}
}

func TestDeterministicRuns(t *testing.T) {
	spec := mustScaled(t, "buk")
	run := func() *Result {
		r, err := Run(spec, TestRunConfig(rt.ModeAggressive))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed || a.VM != b.VM || a.Daemon != b.Daemon {
		t.Fatalf("nondeterministic results:\n%+v\nvs\n%+v", a.VM, b.VM)
	}
}

func mustScaled(t *testing.T, name string) *workload.Spec {
	t.Helper()
	s, err := workload.ScaledByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
