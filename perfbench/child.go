package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"memhogs/internal/compiler"
	"memhogs/internal/driver"
	"memhogs/internal/kernel"
	"memhogs/internal/workload"
)

// childReport is what a child prints for its parent.
type childReport struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	SetupS    float64           `json:"setup_s,omitempty"`
	Ops       [][3]float64      `json:"ops,omitempty"` // each timed operation's wall and CPU seconds and probe (speed.go)
	AllocMB   float64           `json:"alloc_mb"`
	Layers    map[string]metric `json:"layers,omitempty"`
}

// The child roles: set-up alone, the workload untraced, or traced.
const (
	roleSetup = "setup"
	roleRun   = "run"
	roleTrace = "trace"
)

func childMain(o options) int {
	w := workloads[o.workload]
	tr := &tracer{on: o.child == roleTrace, t0: time.Now()}
	var rep *childReport
	var err error
	switch o.child {
	case roleSetup:
		rep, err = childSetup(w)
	case roleRun, roleTrace:
		rep, err = childRun(o, w, tr)
	default:
		err = fmt.Errorf("unknown child role %q", o.child)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	if tr.on {
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	return 0
}

// childSetup measures the workload's set-up and reports it with the
// compile-cache and compiler counts of the same calls.
func childSetup(w bench) (*childReport, error) {
	st, err := measureSetup(w.setup())
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return &childReport{
		SetupS: st.total.Seconds(),
		Layers: map[string]metric{
			"driver.cache_hits":   {float64(st.hits), "count"},
			"driver.cache_misses": {float64(st.misses), "count"},
			"driver.bind_boot_ms": {ms(st.bindBoot), "ms"},
			"compiler.compile_ms": {ms(st.compile), "ms"},
			"compiler.nests":      {float64(st.nests), "count"},
			"compiler.hint_dirs":  {float64(st.hintDirs), "count"},
		},
	}, nil
}

// childRun makes one pass over the workload, timing each operation. With
// -probe it probes the host's speed around each operation; a traced pass
// profiles instead and reports per-layer metrics.
func childRun(o options, w bench, tr *tracer) (*childReport, error) {
	runtime.GC()
	rtBefore := readRuntime()
	var prof bytes.Buffer
	if tr.on {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	if o.probe && !tr.on {
		startProbing()
	}
	start := time.Now()
	out, err := w.run(o.seed, tr)
	wall := time.Since(start)
	if tr.on {
		pprof.StopCPUProfile()
	}
	rtAfter := readRuntime()
	if err != nil {
		return nil, err
	}
	rep := &childReport{
		Attempted: out.attempted,
		Failed:    out.failed,
		Errors:    out.errors,
		AllocMB:   (rtAfter.allocBytes - rtBefore.allocBytes) / (1 << 20),
	}
	for _, op := range out.ops {
		rep.Ops = append(rep.Ops, [3]float64{op.wall.Seconds(), op.cpu.Seconds(), op.probe})
	}
	if tr.on {
		samples, err := readCPUProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		rep.Layers = layerMetrics(out, cpuByBucket(samples), rtBefore, rtAfter, wall)
	}
	return rep, nil
}

// ---- set-up ----

// A set-up child repeats the workload's set-up at least setupReps
// times and until setupBudget has passed, probing the host's speed
// after each repetition. Each cell's set-up time is its fastest
// repetition at the reference speed, as for the workload's operations.
const (
	setupReps   = 21
	setupBudget = 700 * time.Millisecond
)

// setupCell is one program a workload compiles, binds and boots: the
// same calls driver.Run makes before its OnSystem hook.
type setupCell struct {
	cache string         // compile-cache scope shared by cells; "" compiles uncached
	spec  *workload.Spec // nil: boot only (an interactive run-alone baseline)
	tgt   compiler.Target
	kcfg  kernel.Config
	boot  bool // boot a system after binding (false: compile and bind only, as Table 2 does)
}

type setupStats struct {
	total, compile, bindBoot time.Duration // at the reference speed: sums over the cells of each cell's fastest repetition
	hits, misses             int64
	nests, hintDirs          int
}

// measureSetup repeats every cell's compile, bind and boot and sums,
// over the cells, the fastest repetition of each.
func measureSetup(cells []setupCell) (*setupStats, error) {
	st := &setupStats{}
	compiles := make([]time.Duration, len(cells)) // fastest so far
	boots := make([]time.Duration, len(cells))
	repCompiles := make([]time.Duration, len(cells)) // this repetition
	repBoots := make([]time.Duration, len(cells))
	start := time.Now()
	for r := 0; r < setupReps || time.Since(start) < setupBudget; r++ {
		runtime.GC()
		startProbing()
		caches := map[string]*driver.CompileCache{}
		seen := map[*compiler.Compiled]bool{}
		for i, c := range cells {
			var compile, bindBoot time.Duration
			if c.spec != nil {
				t := time.Now()
				var comp *compiler.Compiled
				var err error
				if c.cache == "" {
					comp, err = compiler.Compile(c.spec.Program(nil), c.tgt)
				} else {
					cc := caches[c.cache]
					if cc == nil {
						cc = driver.NewCompileCache()
						caches[c.cache] = cc
					}
					comp, err = cc.Compile(c.spec, nil, c.tgt)
				}
				compile += time.Since(t)
				if err != nil {
					return nil, fmt.Errorf("compile %s: %w", c.spec.Name, err)
				}
				if r == 0 && !seen[comp] {
					seen[comp] = true
					st.nests += comp.Stats.Nests
					st.hintDirs += comp.Stats.PrefetchDirs + comp.Stats.ReleaseDirs
				}
				t = time.Now()
				if _, err := comp.Bind(c.spec.Params); err != nil {
					return nil, fmt.Errorf("bind %s: %w", c.spec.Name, err)
				}
				bindBoot += time.Since(t)
			}
			if c.boot {
				t := time.Now()
				kernel.NewSystem(c.kcfg)
				bindBoot += time.Since(t)
			}
			repCompiles[i], repBoots[i] = compile, bindBoot
		}
		scale := refProbe.Seconds() / probeAfterOp()
		for i := range cells {
			compile := time.Duration(float64(repCompiles[i]) * scale)
			bindBoot := time.Duration(float64(repBoots[i]) * scale)
			if r == 0 || compile+bindBoot < compiles[i]+boots[i] {
				compiles[i], boots[i] = compile, bindBoot
			}
		}
		if r == 0 {
			for _, cc := range caches {
				s := cc.Stats()
				st.hits += s.Hits
				st.misses += s.Misses
			}
		}
	}
	for i := range cells {
		st.compile += compiles[i]
		st.bindBoot += boots[i]
	}
	st.total = st.compile + st.bindBoot
	return st, nil
}

// ---- runtime metrics ----

type runtimeSample struct {
	allocBytes, allocObjects, gcCycles, gcCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}

// ---- per-layer metrics ----

// profiledLayers are the buckets reported as <layer>.self_s; any other
// bucket is summed into other.self_s.
var profiledLayers = []string{
	"compiler", "workload", "rt", "sim", "sched", "vm", "kernel", "mem",
	"disk", "pageout", "pdpm", "events", "gc",
}

func layerMetrics(out *outcome, cpu map[string]float64, before, after runtimeSample, wall time.Duration) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	var jobs []float64
	for _, d := range out.jobs() {
		jobs = append(jobs, float64(d)/1e6)
	}
	put("experiments.job_ms_p50", percentile(jobs, 0.50), "ms")
	put("experiments.job_ms_p85", percentile(jobs, 0.85), "ms")
	put("experiments.render_ms", float64(out.render)/1e6, "ms")

	known := map[string]bool{}
	for _, l := range profiledLayers {
		known[l] = true
		put(l+".self_s", cpu[l], "s")
	}
	var other float64
	for b, s := range cpu {
		if !known[b] {
			other += s
		}
	}
	put("other.self_s", other, "s")

	var t driver.Result // counter sums over every run
	var virtual float64
	for _, r := range out.results {
		virtual += r.Elapsed.Seconds()
		t.SimClamps += r.SimClamps
		t.VM.Touches += r.VM.Touches
		t.VM.SoftFaults += r.VM.SoftFaults
		t.VM.HardFaults += r.VM.HardFaults
		t.VM.RescueFaults += r.VM.RescueFaults
		t.RT.PrefetchCalls += r.RT.PrefetchCalls
		t.RT.PrefetchFiltered += r.RT.PrefetchFiltered
		t.RT.PrefetchIssued += r.RT.PrefetchIssued
		t.RT.ReleaseCalls += r.RT.ReleaseCalls
		t.RT.ReleaseBuffered += r.RT.ReleaseBuffered
		t.MemlockContended += r.MemlockContended
		t.Phys.FreedByRelease += r.Phys.FreedByRelease
		t.Phys.RescuedRelease += r.Phys.RescuedRelease
		t.Far.Demotions += r.Far.Demotions
		t.Far.Promotions += r.Far.Promotions
		t.Disk.Reads += r.Disk.Reads
		t.Disk.Writes += r.Disk.Writes
		t.Daemon.Activations += r.Daemon.Activations
		t.Daemon.Stolen += r.Daemon.Stolen
		t.Releaser.Freed += r.Releaser.Freed
		t.PM.SharedRefreshes += r.PM.SharedRefreshes
	}
	put("vm.touches", float64(t.VM.Touches), "count")
	nsPerTouch := 0.0
	if t.VM.Touches > 0 {
		nsPerTouch = cpu["compiler"] * 1e9 / float64(t.VM.Touches)
	}
	put("compiler.ns_per_touch", nsPerTouch, "ns")
	put("rt.prefetch_calls", float64(t.RT.PrefetchCalls), "count")
	put("rt.prefetch_filtered", float64(t.RT.PrefetchFiltered), "count")
	put("rt.prefetch_useful_ratio", ratio(t.RT.PrefetchIssued, t.RT.PrefetchCalls), "ratio")
	put("rt.release_calls", float64(t.RT.ReleaseCalls), "count")
	put("rt.release_buffered", float64(t.RT.ReleaseBuffered), "count")
	put("sim.virtual_s", virtual, "s")
	wallPerVirtual := 0.0
	if virtual > 0 {
		wallPerVirtual = wall.Seconds() / virtual
	}
	put("sim.wall_per_virtual_s", wallPerVirtual, "s/s")
	put("sim.clamps", float64(t.SimClamps), "count")
	put("vm.soft_faults", float64(t.VM.SoftFaults), "count")
	put("vm.hard_faults", float64(t.VM.HardFaults), "count")
	put("vm.rescue_faults", float64(t.VM.RescueFaults), "count")
	put("kernel.memlock_contended", float64(t.MemlockContended), "count")
	put("mem.release_rescue_ratio", ratio(t.Phys.RescuedRelease, t.Phys.FreedByRelease), "ratio")
	put("mem.far_demotions", float64(t.Far.Demotions), "count")
	put("mem.far_promotions", float64(t.Far.Promotions), "count")
	put("disk.reads", float64(t.Disk.Reads), "count")
	put("disk.writes", float64(t.Disk.Writes), "count")
	put("pageout.daemon_activations", float64(t.Daemon.Activations), "count")
	put("pageout.stolen", float64(t.Daemon.Stolen), "count")
	put("pageout.released", float64(t.Releaser.Freed), "count")
	put("pdpm.shared_refreshes", float64(t.PM.SharedRefreshes), "count")

	put("events.export_s", out.export.Seconds(), "s")
	put("events.emitted", float64(out.emitted), "count")
	put("events.dropped", float64(out.dropped), "count")
	put("events.chrome_mb", float64(out.chromeBytes)/(1<<20), "MB")

	put("gc.cpu_s", after.gcCPU-before.gcCPU, "s")
	put("gc.cycles", after.gcCycles-before.gcCycles, "count")
	put("gc.alloc_objects", after.allocObjects-before.allocObjects, "count")
	return m
}

// percentile is the nearest-rank percentile of v (0 when empty).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// ---- spans ----

// span is one traced call, in milliseconds since the child started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: a root span
	Name   string  `json:"name"`
	Key    string  `json:"key,omitempty"` // the cell, job or figure
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// spanDir receives each traced child's spans, inside the build
// directory the checkout ignores.
const spanDir = ".bench_build/spans"

// tracer keeps spans in memory until the child exits. A tracer that is
// off records nothing and hands out id 0.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e6 }

// begin opens a span and returns its id.
func (t *tracer) begin(name, key string, parent int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: t.ms(time.Now())})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].End = t.ms(time.Now())
	}
}

// add records a span whose interval is already known.
func (t *tracer) add(name, key string, parent int, start, end time.Time) {
	if t.on {
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: t.ms(start), End: t.ms(end)})
	}
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v interface{}) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
