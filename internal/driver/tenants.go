package driver

import (
	"fmt"
	"sort"

	"memhogs/internal/chaos"
	"memhogs/internal/kernel"
	"memhogs/internal/mem"
	"memhogs/internal/pageout"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/workload"
)

// TenantConfig describes one multi-tenant run: a population of memory
// hogs (the out-of-core benchmark, looped) colliding with an open-loop
// Poisson arrival process of short interactive jobs on a NUMA-sharded
// machine. The deliverable is the job response-time tail (p50/p99/
// p999), not a single-run mean — the metric reclaim sharding is
// supposed to protect.
//
// The embedded RunConfig describes the machine and every hog (set
// Kernel.Nodes for a sharded machine). Hogs always loop until the
// horizon and the jobs replace the interactive task, so Repeat must be
// true and InteractiveSleep negative.
type TenantConfig struct {
	RunConfig

	// Hogs is how many copies of the benchmark run concurrently, each
	// repeat-looping until the horizon.
	Hogs int

	// JobPages and JobPerPage shape one interactive job: it touches
	// JobPages fresh pages, charging JobPerPage of compute per page,
	// then exits. Response time = completion - arrival.
	JobPages   int
	JobPerPage sim.Time

	// MeanInterarrival is the open-loop arrival process's mean gap;
	// arrivals are exponential draws from a dedicated sim.Rand stream
	// seeded by Seed, so the schedule is deterministic and independent
	// of how loaded the machine gets (jobs arrive whether or not
	// earlier jobs finished — that is what makes the tail honest).
	MeanInterarrival sim.Time
	Seed             uint64
}

// DefaultTenantConfig returns the paper-scale machine sharded into 4
// nodes with two hogs and a 200 ms mean job arrival gap.
func DefaultTenantConfig(mode rt.Mode) TenantConfig {
	cfg := TenantConfig{
		RunConfig:        DefaultRunConfig(mode),
		Hogs:             2,
		JobPages:         32,
		JobPerPage:       15 * sim.Microsecond,
		MeanInterarrival: 200 * sim.Millisecond,
		Seed:             1,
	}
	cfg.Kernel.Nodes = 4
	cfg.Repeat = true
	cfg.Horizon = 60 * sim.Second
	return cfg
}

// maxTenantJobs bounds the arrival schedule so a degenerate
// mean-interarrival cannot enqueue unbounded work.
const maxTenantJobs = 4096

// TenantResult is everything one multi-tenant run produced.
type TenantResult struct {
	Bench string
	Mode  rt.Mode
	Nodes int
	Hogs  int

	HogRuns   int // completed hog iterations across the population
	Arrived   int // jobs whose arrival fired before the horizon
	Completed int // jobs that finished before the run ended

	// Response-time percentiles over completed jobs (nearest-rank).
	P50, P99, P999, Max sim.Time

	Phys     mem.Stats
	Daemon   pageout.DaemonStats
	Releaser pageout.ReleaserStats
	Balancer pageout.BalancerStats

	Chaos      chaos.Counts
	AuditTicks int
}

// Percentile returns the q-quantile (0 < q <= 1) of an ascending
// sorted slice by the nearest-rank definition sorted[ceil(q*n)-1] —
// p999 of 1000 samples is the 999th, of 2000 the 1998th. Zero
// samples yield zero.
func Percentile(sorted []sim.Time, q float64) sim.Time {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(float64(n)*q + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// RunTenants executes one multi-tenant experiment.
func RunTenants(spec *workload.Spec, cfg TenantConfig) (*TenantResult, error) {
	if cfg.Hogs < 0 {
		return nil, fmt.Errorf("tenants: negative hog count %d", cfg.Hogs)
	}
	if cfg.JobPages <= 0 || cfg.MeanInterarrival <= 0 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("tenants: JobPages, MeanInterarrival and Horizon must be positive")
	}
	if !cfg.Repeat || cfg.InteractiveSleep >= 0 {
		return nil, fmt.Errorf("tenants: hogs loop until the horizon and jobs replace the interactive task; Repeat must be true and InteractiveSleep negative")
	}
	comp, err := cfg.compile(spec)
	if err != nil {
		return nil, err
	}

	h := boot(cfg.RunConfig)
	sys := h.sys
	res := &TenantResult{
		Bench: spec.Name,
		Mode:  cfg.Mode,
		Nodes: sys.Phys.Nodes(),
		Hogs:  cfg.Hogs,
	}

	// The hog population: each hog is its own process (so home-node
	// placement spreads them round-robin) with its own bound image and
	// run-time layer, looping until the horizon.
	hogs := make([]*hog, cfg.Hogs)
	for i := range hogs {
		img, err := comp.Bind(cfg.Params)
		if err != nil {
			return nil, fmt.Errorf("bind %s: %w", spec.Name, err)
		}
		hogs[i] = h.newHog(fmt.Sprintf("hog%d", i), img)
		h.start(hogs[i], false)
	}

	// The open-loop arrival schedule is drawn up front from its own
	// stream: job k's arrival time does not depend on anything the
	// simulation does.
	rng := sim.NewRand(cfg.Seed*0x9e3779b97f4a7c15 + 0x74656e616e7473)
	var arrivals []sim.Time
	for t := rng.Exp(cfg.MeanInterarrival); t < cfg.Horizon && len(arrivals) < maxTenantJobs; t += rng.Exp(cfg.MeanInterarrival) {
		arrivals = append(arrivals, t)
	}
	responses := make([]sim.Time, 0, len(arrivals))
	for i, at := range arrivals {
		sys.Sim.At(at, func() {
			res.Arrived++
			job := sys.NewProcess(fmt.Sprintf("job%d", i), cfg.JobPages)
			job.Start(false, func(th *kernel.Thread) {
				for vpn := 0; vpn < cfg.JobPages; vpn++ {
					th.Touch(vpn, true)
					th.User(cfg.JobPerPage)
				}
				th.FlushUser()
				res.Completed++
				responses = append(responses, th.Now()-at)
			})
		})
	}

	if err := h.finish(spec.Name); err != nil {
		return nil, err
	}

	for _, g := range hogs {
		res.HogRuns += g.runs
	}
	sort.Slice(responses, func(a, b int) bool { return responses[a] < responses[b] })
	res.P50 = Percentile(responses, 0.50)
	res.P99 = Percentile(responses, 0.99)
	res.P999 = Percentile(responses, 0.999)
	if n := len(responses); n > 0 {
		res.Max = responses[n-1]
	}
	res.Phys = sys.Phys.Stats()
	res.Daemon = sys.DaemonStats()
	res.Releaser = sys.ReleaserStats()
	res.Balancer = sys.BalancerStats()
	res.Chaos = h.inj.Counts()
	res.AuditTicks = h.auditTicks
	return res, nil
}
