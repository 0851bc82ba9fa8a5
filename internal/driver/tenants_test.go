package driver

import (
	"reflect"
	"testing"

	"memhogs/internal/chaos"
	"memhogs/internal/kernel"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/workload"
)

// TestMeanTimeRounding pins the integer mean convention: half away
// from zero, matching the largest-remainder rounding the metrics
// tables use. The old code truncated, so a mean of 4.5 printed as 4
// while the table column it fed rounded to 5.
func TestMeanTimeRounding(t *testing.T) {
	cases := []struct {
		sum  sim.Time
		n    int
		want sim.Time
	}{
		{0, 0, 0},
		{10, 0, 0},
		{10, 4, 3}, // 2.5 -> 3
		{9, 2, 5},  // 4.5 -> 5
		{11, 2, 6}, // 5.5 -> 6
		{7, 3, 2},  // 2.33 -> 2
		{8, 3, 3},  // 2.67 -> 3
		{100, 10, 10},
	}
	for _, c := range cases {
		if got := MeanTime(c.sum, c.n); got != c.want {
			t.Errorf("MeanTime(%d, %d) = %d, want %d", c.sum, c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]sim.Time, 1000)
	for i := range sorted {
		sorted[i] = sim.Time(i + 1) // 1..1000
	}
	cases := []struct {
		q    float64
		want sim.Time
	}{
		{0.50, 500},
		{0.99, 990},
		{0.999, 999},
		{1.0, 1000},
		{0.001, 1},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.q); got != c.want {
			t.Errorf("Percentile(1..1000, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(nil) = %d, want 0", got)
	}
	one := []sim.Time{7}
	for _, q := range []float64{0.001, 0.5, 0.999, 1} {
		if got := Percentile(one, q); got != 7 {
			t.Errorf("Percentile([7], %v) = %d, want 7", q, got)
		}
	}
}

func testTenantConfig() TenantConfig {
	cfg := DefaultTenantConfig(rt.ModeAggressive)
	cfg.Kernel = kernel.TestConfig()
	cfg.Kernel.Nodes = 4
	cfg.JobPages = 16
	cfg.MeanInterarrival = 100 * sim.Millisecond
	cfg.Horizon = 3 * sim.Second
	return cfg
}

// TestRunTenantsDeterministic runs the identical multi-tenant config
// twice and requires bit-identical results — the sharded kernel, the
// balancer, and the open-loop arrival stream must all be functions of
// the config alone.
func TestRunTenantsDeterministic(t *testing.T) {
	spec, err := workload.ScaledByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunTenants(spec, testTenantConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTenants(spec, testTenantConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs differ:\n%+v\n%+v", a, b)
	}
	if a.Arrived == 0 || a.Completed == 0 {
		t.Fatalf("no job traffic: %+v", a)
	}
	if a.Nodes != 4 {
		t.Fatalf("Nodes = %d, want 4", a.Nodes)
	}
	if a.Phys.LocalAllocs == 0 {
		t.Fatalf("no node-local allocations recorded: %+v", a.Phys)
	}
}

// TestRunTenantsAuditUnderNodeScopedUnplug hot-unplugs a single node's
// region mid-run with the continuous audit armed: per-node free-list
// invariants, the packed bitmap, and the balancer's books must hold
// through a scoped shrink/grow cycle.
func TestRunTenantsAuditUnderNodeScopedUnplug(t *testing.T) {
	spec, err := workload.ScaledByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.ParsePlan("seed=11;mem-shrink:at=50ms,mag=24,node=1;mem-grow:at=400ms,mag=24,node=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testTenantConfig()
	cfg.Chaos = &plan
	cfg.AuditEvery = 50 * sim.Millisecond
	cfg.AuditOnFault = true
	res, err := RunTenants(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chaos.Get(chaos.MemShrink) == 0 || res.Chaos.Get(chaos.MemGrow) == 0 {
		t.Fatalf("scoped unplug did not fire: %+v", res.Chaos.Map())
	}
	if res.AuditTicks == 0 {
		t.Fatal("cadence audit never ran")
	}
}

// TestRunTenantsSchedulesFarUnplug runs the far fault class on a
// sharded machine with a far tier. Its timed far-shrink and far-grow
// faults are scheduled by the shared boot step, exactly as for Run; a
// tenants-only copy of that step once scheduled memory unplug but not
// far-tier unplug, so only the probabilistic far faults fired.
func TestRunTenantsSchedulesFarUnplug(t *testing.T) {
	spec, err := workload.ScaledByName("fftpde")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.ClassPlan("far", 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testTenantConfig()
	cfg.Mode = rt.ModeBuffered
	cfg.RT = rt.DefaultConfig(rt.ModeBuffered)
	cfg.Kernel.UserMemPages -= 64
	cfg.Kernel.Far.Pages = 64
	cfg.Chaos = &plan
	res, err := RunTenants(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chaos.Get(chaos.FarShrink) == 0 || res.Chaos.Get(chaos.FarGrow) == 0 {
		t.Fatalf("far-tier unplug did not fire: %+v", res.Chaos.Map())
	}
}
