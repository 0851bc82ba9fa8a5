package experiments

import (
	"fmt"

	"memhogs/internal/driver"
	"memhogs/internal/metrics"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/workload"
)

// The multi-tenant campaign is the datacenter-node experiment the
// paper's single-user setup never ran: a NUMA-sharded machine where a
// hog population collides with an open-loop stream of short
// interactive jobs, and the deliverable is the job tail (p50/p99/p999)
// per program version — does compiler-directed releasing protect the
// tail, not just the mean?

// tenantNodes and tenantHogs fix the campaign's machine shape. Four
// nodes with two hogs leaves half the nodes hog-free, so remote
// allocations and balancer traffic are both exercised.
const (
	tenantNodes = 4
	tenantHogs  = 2
)

// MultiTenant is the dataset behind the tenants campaign: each
// benchmark as the hog population, all four versions, on the sharded
// machine.
type MultiTenant struct {
	Opts    Opts
	Specs   []*workload.Spec
	Nodes   int
	Hogs    int
	Results map[string]map[rt.Mode]*driver.TenantResult
}

// tenantConfig derives the per-run config from campaign options.
func (o Opts) tenantConfig(mode rt.Mode, cache *driver.CompileCache) driver.TenantConfig {
	cfg := driver.DefaultTenantConfig(mode)
	cfg.Kernel = o.kernelConfig()
	cfg.Kernel.Nodes = tenantNodes
	cfg.Cache = cache
	cfg.Hogs = tenantHogs
	cfg.Horizon = o.Horizon
	if o.Scaled {
		// The scaled machine has 64-page nodes: shrink the jobs so one
		// job is pressure, not an eviction storm.
		cfg.JobPages = 16
		cfg.MeanInterarrival = 100 * sim.Millisecond
	}
	return cfg
}

// RunMultiTenant collects the MultiTenant dataset. The (benchmark ×
// mode) grid runs on the campaign worker pool, so rendered output is
// byte-identical at any -j.
func RunMultiTenant(o Opts) (*MultiTenant, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	cache := driver.NewCompileCache()
	cells := grid(specs, Modes)
	res, err := runCells(o, cells,
		func(c cell) string { return "tenants " + c.String() },
		func(c cell) (*driver.TenantResult, string, error) {
			r, err := driver.RunTenants(c.spec, o.tenantConfig(c.mode, cache))
			if err != nil {
				return nil, "", err
			}
			return r, "p99=" + r.P99.String(), nil
		})
	if err != nil {
		return nil, err
	}
	return &MultiTenant{
		Opts:    o,
		Specs:   specs,
		Nodes:   tenantNodes,
		Hogs:    tenantHogs,
		Results: byBenchMode(cells, res),
	}, nil
}

// TenantTable renders the job response-time tail per benchmark and
// version, plus the NUMA traffic that produced it.
func TenantTable(m *MultiTenant) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Multi-tenant node: %d nodes, %d hogs, open-loop job stream", m.Nodes, m.Hogs),
		"benchmark", "ver", "jobs done", "p50", "p99", "p999", "max",
		"local alloc", "remote alloc", "balancer moves")
	for _, spec := range m.Specs {
		for _, mode := range Modes {
			r := m.Results[spec.Name][mode]
			t.AddRow(spec.Name, mode.String(),
				fmt.Sprintf("%d/%d", r.Completed, r.Arrived),
				r.P50.String(), r.P99.String(), r.P999.String(), r.Max.String(),
				r.Phys.LocalAllocs, r.Phys.RemoteAllocs, r.Balancer.FramesMoved)
		}
	}
	t.AddNote("Percentiles are nearest-rank over completed job response times.")
	t.AddNote("Releasing (R/B) should flatten the tail: hogs return frames before the")
	t.AddNote("daemons must steal them from under an arriving job.")
	return t
}
