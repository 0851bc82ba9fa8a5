// Kind-coverage regression test: the dynamic complement of simvet's
// SV003 registry check. SV003 proves statically that every events.Kind
// has an Emit call site somewhere in non-test code; this test proves
// the sites are actually reachable by accumulating recorder counters
// over a small matrix of runs and requiring a nonzero total per kind.
package memhogs

import (
	"testing"

	"memhogs/internal/chaos"
	"memhogs/internal/driver"
	"memhogs/internal/events"
	"memhogs/internal/kernel"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/workload"
)

// tenantCoverageRun runs a small sharded multi-tenant experiment, the
// only reachable source of the NUMA kinds (alloc-local, alloc-remote,
// balancer-migrate).
func tenantCoverageRun(t *testing.T) events.Counts {
	t.Helper()
	spec, err := workload.ScaledByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	var rec *events.Recorder
	cfg := driver.DefaultTenantConfig(rt.ModeOriginal)
	cfg.Kernel = kernel.TestConfig()
	cfg.Kernel.Nodes = 4
	cfg.JobPages = 16
	cfg.MeanInterarrival = 100 * sim.Millisecond
	cfg.Horizon = 5 * sim.Second
	cfg.OnSystem = func(sys *kernel.System) {
		rec = events.New(sys.Sim, 1<<18)
		sys.SetEvents(rec)
	}
	if _, err := driver.RunTenants(spec, cfg); err != nil {
		t.Fatal(err)
	}
	return rec.Counts()
}

// TestEveryEventKindObservable asserts that every registered kind is
// produced by at least one run in the matrix below. If this fails
// after adding a kind, either instrument the new decision point or
// extend the matrix with a run that reaches it.
func TestEveryEventKindObservable(t *testing.T) {
	var total events.Counts
	add := func(c events.Counts) {
		for k := range c {
			total[k] += c[k]
		}
	}
	addRun := func(bench string, mode rt.Mode, mut func(*driver.RunConfig)) {
		rec, _, _ := recordRun(t, bench, mode, mut)
		add(rec.Counts())
	}

	// The headline configuration: a full scaled FFTPDE run under the
	// buffered version covers the fault, daemon, releaser, run-time
	// buffering and shared-page paths.
	addRun("fftpde", rt.ModeBuffered, nil)

	// Reactive mode is the only producer of daemon-donated: pages
	// leave the buffered queues only when the daemon pulls them
	// through the donor callback.
	addRun("fftpde", rt.ModeReactive, nil)

	// A chaos-armed repeat run covers chaos-inject and the defensive
	// paths a clean single pass never reaches: free-list rescues and
	// releaser skip-ref need the program to loop back over pages it
	// released (repeat + aggressive), and the injected late/duplicate
	// hints produce release-not-resident drops.
	plan, err := chaos.ClassPlan("all", 7)
	if err != nil {
		t.Fatal(err)
	}
	addRun("matvec", rt.ModeAggressive, func(c *driver.RunConfig) {
		c.Chaos = &plan
		c.Repeat = true
		c.Horizon = 2 * 60 * sim.Second
	})

	// Starved queues force the two overflow kinds: a one-slot prefetch
	// work queue drops hints, and a four-page release queue hits its
	// cap on every burst.
	addRun("fftpde", rt.ModeBuffered, func(c *driver.RunConfig) {
		c.RT.MaxQueue = 4
		c.RT.MaxPfQueue = 1
		c.RT.Workers = 1
	})

	// A NUMA-sharded multi-tenant run is the only producer of the
	// node-placement kinds: alloc-local/alloc-remote are emitted only
	// when nodes > 1, and balancer-migrate needs the inter-node
	// balancer to move free frames between regions.
	add(tenantCoverageRun(t))

	// A far-tier run is the only producer of the tiering kinds: the
	// buffered FFTPDE releases pages with reuse (eq. 2 priority >= 1),
	// which demote instead of freeing (tier-demote), and later
	// references promote them back at far latency (fault-far +
	// tier-promote). The DRAM budget shrinks by the far pages so the
	// total stays the test machine's 256.
	addRun("fftpde", rt.ModeBuffered, func(c *driver.RunConfig) {
		c.Kernel.UserMemPages -= 64
		c.Kernel.Far.Pages = 64
	})

	for k := events.Kind(0); k < events.KindCount; k++ {
		if k.String() == "unknown" {
			t.Errorf("Kind %d has no name in kindNames", k)
		}
		if total[k] == 0 {
			t.Errorf("events.Kind %s (%d) never observed across the run matrix", k, k)
		}
	}
}
