package driver

import (
	"runtime"
	"testing"

	"memhogs/internal/kernel"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/workload"
)

// maxRunMallocs bounds the heap allocations of one paper-scale matvec
// run in the R version, after its compile is cached: booting the
// machine, binding the program and simulating it to the end. The
// simulation itself should allocate next to nothing per event: the
// release path (hint, worker, policy module, releaser) hands pages on
// without a slice per page, and the daemons and workers are step
// processes whose continuations are bound once. The run frees some
// 51,000 pages through that path; before it was allocation-free it
// made about two allocations per page freed (about 103,000 in all);
// now it makes about 500 in all. The bound leaves ten times that for
// set-up to grow, and fails long before one allocation per page freed
// comes back.
const maxRunMallocs = 5000

// TestRunAllocationsBounded is the allocation gate: simvet's SV006
// checks the hot functions one at a time, this checks a whole run.
func TestRunAllocationsBounded(t *testing.T) {
	spec, err := workload.ByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Kernel: kernel.DefaultConfig(), Mode: rt.ModeAggressive, RT: rt.DefaultConfig(rt.ModeAggressive),
		Horizon: 30 * 60 * sim.Second, InteractiveSleep: -1, Cache: NewCompileCache(),
	}
	if _, err := Run(spec, cfg); err != nil { // fill the compile cache
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := Run(spec, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("matvec/R: %d mallocs, %d pages freed by release", mallocs, r.Releaser.Freed)
	if r.Releaser.Freed < 10000 {
		t.Fatalf("matvec/R freed only %d pages by release: the run does not exercise the release path", r.Releaser.Freed)
	}
	if mallocs > maxRunMallocs {
		t.Errorf("matvec/R made %d heap allocations, more than %d", mallocs, maxRunMallocs)
	}
}
