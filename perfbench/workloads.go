package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"

	"memhogs"
	"memhogs/internal/compiler"
	"memhogs/internal/driver"
	"memhogs/internal/events"
	"memhogs/internal/experiments"
	"memhogs/internal/kernel"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/workload"
)

// Pinned outputs: the campaign and paging digests live next to the
// benchmark; the recorder digests are the repository's own
// testdata/trace_digests.json, read and never written.
const (
	digestFile      = "perfbench/digests.json"
	traceDigestFile = "testdata/trace_digests.json"
)

// bench is one workload: the cells whose set-up it measures before the
// timed part, and the timed part itself.
type bench struct {
	setup func() []setupCell
	run   func(seed int64, tr *tracer) (*outcome, error)
}

var workloads = map[string]bench{
	"campaign": {setup: campaignSetup, run: runCampaign},
	"paging":   {setup: pagingSetup, run: runPaging},
	"recorder": {setup: recorderSetup, run: runRecorder},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkInputs fails fast when the pinned digests are missing, i.e.
// the benchmark is not running from a repository checkout.
func checkInputs() error {
	if _, err := loadDigests(); err != nil {
		return err
	}
	_, err := loadTraceDigests()
	return err
}

// outcome is what one timed workload run produced.
type outcome struct {
	attempted, failed int
	errors            []string

	results []*driver.Result // simulated counters of the runs the benchmark sees
	ops     []opTime         // every timed operation of the pass, in order
	render  time.Duration    // campaign table/figure rendering
	export  time.Duration    // recorder exporters (Log, CounterSummary, Chrome)

	emitted, dropped, chromeBytes int64
}

// opTime is one timed operation: a Progress-reported job or a cell
// (job set), or a campaign step between jobs such as a rendering.
type opTime struct {
	job       bool
	wall, cpu time.Duration
	probe     float64 // the host-speed probe around the operation (speed.go); 0 when not probing
}

// jobs returns the wall times of the pass's jobs and cells.
func (o *outcome) jobs() []time.Duration {
	var d []time.Duration
	for _, op := range o.ops {
		if op.job {
			d = append(d, op.wall)
		}
	}
	return d
}

// stopwatch times one operation in wall time and in the process's CPU
// time (user + system, every thread).
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

// stop ends the operation, then probes the host's speed if the child
// probes.
func (s stopwatch) stop(job bool) opTime {
	op := opTime{job: job, wall: time.Since(s.wall), cpu: processCPU() - s.cpu}
	op.probe = probeAfterOp()
	return op
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (o *outcome) fail(format string, args ...interface{}) {
	o.failed++
	if len(o.errors) < 10 {
		o.errors = append(o.errors, fmt.Sprintf(format, args...))
	}
}

// pinned is the layout of digests.json.
type pinned struct {
	Campaign string            `json:"campaign"`
	Paging   map[string]string `json:"paging"`
}

func loadDigests() (*pinned, error) {
	var p pinned
	if err := readJSON(digestFile, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

func loadTraceDigests() (map[string]string, error) {
	var m map[string]string
	if err := readJSON(traceDigestFile, &m); err != nil {
		return nil, err
	}
	return m, nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// modeTarget is the compiler target driver.Run derives for a mode.
func modeTarget(k kernel.Config, mode rt.Mode) compiler.Target {
	tgt := compiler.DefaultTarget(k.PageSize, k.UserMemPages)
	tgt.Prefetch = mode.UsesPrefetch()
	tgt.Release = mode.UsesRelease()
	return tgt
}

// shuffled returns a seed-ordered copy of cells.
func shuffled[T any](cells []T, seed int64) []T {
	out := append([]T(nil), cells...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ---- campaign: memhog -quick -j 1 all ----

// campaignOpts is the experiment configuration Campaign{Quick: true,
// Workers: 1} uses.
func campaignOpts() experiments.Opts {
	o := experiments.Quick()
	o.Workers = 1
	return o
}

func distinctSleeps(o experiments.Opts) []sim.Time {
	var out []sim.Time
	seen := map[sim.Time]bool{}
	for _, s := range o.SleepTimes {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// campaignSetup lists what All() compiles, binds and boots: Table 2's
// six uncached compiles and binds, then the sleep sweep, Versions and
// Interactive campaigns, each with its own compile cache, one boot per
// simulation.
func campaignSetup() []setupCell {
	o := campaignOpts()
	k := kernel.TestConfig()
	specs := workload.AllScaled()
	var cells []setupCell
	for _, s := range specs {
		cells = append(cells, setupCell{spec: s, tgt: compiler.DefaultTarget(k.PageSize, k.UserMemPages), kcfg: k})
	}
	matvec := workload.MatvecScaled()
	for range distinctSleeps(o) {
		cells = append(cells, setupCell{kcfg: k, boot: true})
		for _, m := range experiments.Modes {
			cells = append(cells, setupCell{cache: "sweep", spec: matvec, tgt: modeTarget(k, m), kcfg: k, boot: true})
		}
	}
	for _, s := range specs {
		for _, m := range experiments.Modes {
			cells = append(cells, setupCell{cache: "versions", spec: s, tgt: modeTarget(k, m), kcfg: k, boot: true})
		}
	}
	cells = append(cells, setupCell{kcfg: k, boot: true})
	for _, s := range specs {
		for _, m := range experiments.Modes {
			cells = append(cells, setupCell{cache: "interactive", spec: s, tgt: modeTarget(k, m), kcfg: k, boot: true})
		}
	}
	return cells
}

// campaignJobs counts the Progress-reported jobs of All(): one run-alone
// baseline plus four versions per distinct sleep, then the benchmark x
// version grid twice and the interactive baseline.
func campaignJobs() int {
	o := campaignOpts()
	n := len(workload.AllScaled()) * len(experiments.Modes)
	return len(distinctSleeps(o))*(1+len(experiments.Modes)) + n + 1 + n
}

// lineClock turns Progress lines into timed jobs: each line closes the
// job that started at the previous line (or at the phase start).
type lineClock struct {
	tr     *tracer
	out    *outcome
	parent int
	watch  stopwatch
	jobs   int
}

func (c *lineClock) phase(parent int) { c.parent, c.watch = parent, startWatch() }

func (c *lineClock) Write(p []byte) (int, error) {
	for _, line := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
		op := c.watch.stop(true)
		c.out.ops = append(c.out.ops, op)
		c.tr.add("job", line, c.parent, c.watch.wall, c.watch.wall.Add(op.wall))
		c.jobs++
		c.watch = startWatch()
	}
	return len(p), nil
}

func runCampaign(_ int64, tr *tracer) (*outcome, error) {
	pins, err := loadDigests()
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: campaignJobs()}
	clock := &lineClock{tr: tr, out: out}
	root := tr.begin("campaign", "", 0)
	clock.phase(root)
	text, err := campaignAll(tr, root, clock, out)
	tr.end(root)
	switch {
	case err != nil:
		out.failed = out.attempted - clock.jobs
		out.errors = append(out.errors, err.Error())
	case clock.jobs != out.attempted:
		out.fail("campaign reported %d jobs, want %d", clock.jobs, out.attempted)
	case sha([]byte(text)) != pins.Campaign:
		out.failed = out.attempted
		out.errors = append(out.errors, fmt.Sprintf("campaign output sha256 %s, want %s", sha([]byte(text)), pins.Campaign))
	}
	for _, r := range out.results {
		if r.SimClamps != 0 {
			out.fail("%s/%s: %d clamped schedules", r.Bench, r.Mode, r.SimClamps)
		}
	}
	return out, nil
}

// campaignAll is Campaign{Quick: true, Workers: 1}.All() made from the
// same experiment-layer calls in the same order, with a span around
// each phase and each rendering when tracing. It keeps the Versions
// and Interactive campaigns' Results, so their SimClamps are checked in
// every run; the sleep sweep keeps none. The output digest, pinned from
// All() itself, proves it renders the same bytes.
func campaignAll(tr *tracer, root int, clock *lineClock, out *outcome) (string, error) {
	o := campaignOpts()
	o.Progress = clock
	var b strings.Builder
	render := func(name string, f func() string) {
		id := tr.begin("render", name, root)
		w := startWatch()
		b.WriteString(f())
		b.WriteString("\n")
		op := w.stop(false)
		out.ops = append(out.ops, op)
		out.render += op.wall
		tr.end(id)
	}
	render("table1", func() string { return experiments.Table1(o).String() })
	id := tr.begin("compile", "table2", root)
	w := startWatch()
	t2, err := experiments.Table2(o)
	out.ops = append(out.ops, w.stop(false))
	tr.end(id)
	if err != nil {
		return "", err
	}
	render("table2", t2.String)

	id = tr.begin("phase", "sweep", root)
	clock.phase(id)
	sweep, err := experiments.RunSweep(o)
	tr.end(id)
	if err != nil {
		return "", err
	}
	render("fig1", func() string { return experiments.Fig1(sweep).String() })

	id = tr.begin("phase", "versions", root)
	clock.phase(id)
	versions, err := experiments.RunVersions(o)
	tr.end(id)
	if err != nil {
		return "", err
	}
	render("fig7", func() string { return experiments.Fig7(versions) })
	render("fig8", func() string { return experiments.Fig8(versions).String() })
	render("table3", func() string { return experiments.Table3(versions).String() })
	render("fig9", func() string { return experiments.Fig9(versions).String() })
	render("fig10a", func() string { return experiments.Fig10a(sweep).String() })

	id = tr.begin("phase", "interactive", root)
	clock.phase(id)
	inter, err := experiments.RunInteractive(o)
	tr.end(id)
	if err != nil {
		return "", err
	}
	render("fig10b", func() string { return experiments.Fig10b(inter).String() })
	render("fig10c", func() string { return experiments.Fig10c(inter).String() })

	for _, d := range []map[string]map[rt.Mode]*driver.Result{versions.Results, inter.Results} {
		for _, spec := range versions.Specs {
			for _, m := range experiments.Modes {
				out.results = append(out.results, d[spec.Name][m])
			}
		}
	}
	return b.String(), nil
}

// ---- paging: paper-scale fault-bound cells through driver.Run ----

type pagingCell struct {
	key  string
	spec *workload.Spec
	mode rt.Mode
	kcfg kernel.Config
}

// pagingCells is matvec, embar, mgrid and fftpde x O/P/R/B on the
// paper's Table 1 machine, plus fftpde R/B with the memory budget split
// 1:1 between DRAM and the far tier.
func pagingCells() []pagingCell {
	k := kernel.DefaultConfig()
	var cells []pagingCell
	for _, name := range []string{"matvec", "embar", "mgrid", "fftpde"} {
		spec, err := workload.ByName(name)
		if err != nil {
			panic(err) // the names above are built in
		}
		for _, m := range experiments.Modes {
			cells = append(cells, pagingCell{name + "/" + m.String(), spec, m, k})
		}
	}
	far := k
	far.UserMemPages, far.Far.Pages = experiments.TierRatio{DRAM: 1, Far: 1}.Split(k.UserMemPages)
	for _, m := range []rt.Mode{rt.ModeAggressive, rt.ModeBuffered} {
		cells = append(cells, pagingCell{"fftpde/" + m.String() + "+far1:1", workload.Fftpde(), m, far})
	}
	return cells
}

// config is the cell's run: to completion, no interactive task, as
// memhogs.RunBenchmark runs it, sharing one compile cache.
func (c pagingCell) config(cache *driver.CompileCache) driver.RunConfig {
	return driver.RunConfig{
		Kernel: c.kcfg, Mode: c.mode, RT: rt.DefaultConfig(c.mode),
		Horizon: 30 * 60 * sim.Second, InteractiveSleep: -1, Cache: cache,
	}
}

func pagingSetup() []setupCell {
	var cells []setupCell
	for _, c := range pagingCells() {
		cells = append(cells, setupCell{cache: "paging", spec: c.spec, tgt: modeTarget(c.kcfg, c.mode), kcfg: c.kcfg, boot: true})
	}
	return cells
}

// resultDigest pins a run's simulated counters.
func resultDigest(r *driver.Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return sha(b), nil
}

func runPaging(seed int64, tr *tracer) (*outcome, error) {
	pins, err := loadDigests()
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	cache := driver.NewCompileCache()
	root := tr.begin("paging", "", 0)
	for _, c := range shuffled(pagingCells(), seed) {
		out.attempted++
		id := tr.begin("cell", c.key, root)
		var booted time.Time
		cfg := c.config(cache)
		if tr.on {
			cfg.OnSystem = func(*kernel.System) { booted = time.Now() }
		}
		w := startWatch()
		r, err := driver.Run(c.spec, cfg)
		op := w.stop(true)
		if tr.on && !booted.IsZero() {
			tr.add("compile+bind+boot", c.key, id, w.wall, booted)
			tr.add("simulate", c.key, id, booted, w.wall.Add(op.wall))
		}
		tr.end(id)
		out.ops = append(out.ops, op)
		if err != nil {
			out.fail("%s: %v", c.key, err)
			continue
		}
		out.results = append(out.results, r)
		if r.SimClamps != 0 {
			out.fail("%s: %d clamped schedules", c.key, r.SimClamps)
			continue
		}
		if d, err := resultDigest(r); err != nil || d != pins.Paging[c.key] {
			out.fail("%s: result sha256 %s, want %s (%v)", c.key, d, pins.Paging[c.key], err)
		}
	}
	tr.end(root)
	return out, nil
}

// ---- recorder: the 28-cell trace-digest matrix ----

// recorderCell is one trace-digest cell: the facade's machine for the
// untraced memhogs.Trace call, and the kernel configuration that
// machine boots for the traced driver-level run.
type recorderCell struct {
	key   string
	bench string
	ver   memhogs.Version
	mach  memhogs.Machine
	kcfg  kernel.Config
}

// recorderCells is the matrix testdata/trace_digests.json pins: every
// benchmark x version on the quick machine, plus fftpde x version with
// the same 256-page budget split 3:1 DRAM:far.
func recorderCells() []recorderCell {
	plain := memhogs.TestMachine()
	far := memhogs.TestMachine()
	far.MemoryMB, far.FarMemMB = 3, 1
	k := kernel.TestConfig()
	kfar := k
	kfar.UserMemPages, kfar.Far.Pages = experiments.TierRatio{DRAM: 3, Far: 1}.Split(k.UserMemPages)
	var cells []recorderCell
	for _, b := range memhogs.BenchmarkNames() {
		for _, v := range memhogs.Versions() {
			cells = append(cells, recorderCell{b + "/" + v.String(), b, v, plain, k})
		}
	}
	for _, v := range memhogs.Versions() {
		cells = append(cells, recorderCell{"fftpde/" + v.String() + "+far", "fftpde", v, far, kfar})
	}
	return cells
}

func recorderSetup() []setupCell {
	var cells []setupCell
	for _, c := range recorderCells() {
		spec, err := workload.ScaledByName(c.bench)
		if err != nil {
			panic(err) // the facade's own benchmark names
		}
		cells = append(cells, setupCell{spec: spec, tgt: modeTarget(c.kcfg, versionMode(c.ver)), kcfg: c.kcfg, boot: true})
	}
	return cells
}

// versionMode is the facade's Version-to-mode mapping.
func versionMode(v memhogs.Version) rt.Mode {
	return experiments.Modes[v]
}

// traceCapacity is the facade's flight-recorder ring size for Trace.
const traceCapacity = 1 << 18

// runRecorder runs every cell through memhogs.Trace, or when tracing
// through traceCell. TraceResult carries no SimClamps, so an untraced
// cell fails on an error or a digest mismatch only; the traced run of
// the same cell also fails on a clamp.
func runRecorder(seed int64, tr *tracer) (*outcome, error) {
	want, err := loadTraceDigests()
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	root := tr.begin("recorder", "", 0)
	for _, c := range shuffled(recorderCells(), seed) {
		out.attempted++
		id := tr.begin("cell", c.key, root)
		w := startWatch()
		var chrome []byte
		if tr.on {
			chrome, err = traceCell(c, tr, id, out)
		} else {
			var res *memhogs.TraceResult
			res, err = memhogs.Trace(c.bench, c.ver, c.mach, 0, -1)
			if err == nil {
				chrome = res.ChromeJSON
			}
		}
		out.ops = append(out.ops, w.stop(true))
		tr.end(id)
		if err != nil {
			out.fail("%s: %v", c.key, err)
			continue
		}
		out.chromeBytes += int64(len(chrome))
		if d := sha(chrome); d != want[c.key] {
			out.fail("%s: chrome sha256 %s, want %s", c.key, d, want[c.key])
		}
	}
	tr.end(root)
	return out, nil
}

// traceCell is memhogs.Trace at the driver level: the simulation with
// the recorder installed, then each exporter in its own span.
func traceCell(c recorderCell, tr *tracer, parent int, out *outcome) ([]byte, error) {
	spec, err := workload.ScaledByName(c.bench)
	if err != nil {
		return nil, err
	}
	mode := versionMode(c.ver)
	var rec *events.Recorder
	cfg := driver.RunConfig{
		Kernel: c.kcfg, Mode: mode, RT: rt.DefaultConfig(mode),
		Horizon: 30 * 60 * sim.Second, InteractiveSleep: -1,
		OnSystem: func(sys *kernel.System) {
			rec = events.New(sys.Sim, traceCapacity)
			sys.SetEvents(rec)
		},
	}
	id := tr.begin("simulate", c.key, parent)
	r, err := driver.Run(spec, cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	out.results = append(out.results, r)
	if r.SimClamps != 0 {
		return nil, fmt.Errorf("%d clamped schedules", r.SimClamps)
	}
	start := time.Now()
	export := func(name string, f func()) {
		id := tr.begin(name, c.key, parent)
		f()
		tr.end(id)
	}
	var chrome []byte
	export("export.log", func() { _ = rec.Log() })
	export("export.counters", func() { _ = rec.CounterSummary() })
	export("export.chrome", func() { chrome = rec.Chrome() })
	out.export += time.Since(start)
	counts := rec.Counts()
	for _, n := range counts {
		out.emitted += n
	}
	out.dropped += rec.Dropped()
	return chrome, nil
}

// pinDigests regenerates digests.json from fresh runs (the -pin flag).
// Run it only after an intentional change of simulated behaviour, as
// UPDATE_TRACE_DIGESTS is for the trace digests.
func pinDigests() error {
	text, err := memhogs.Campaign{Quick: true, Workers: 1}.All()
	if err != nil {
		return err
	}
	p := pinned{Campaign: sha([]byte(text)), Paging: map[string]string{}}
	cache := driver.NewCompileCache()
	for _, c := range pagingCells() {
		r, err := driver.Run(c.spec, c.config(cache))
		if err != nil {
			return fmt.Errorf("%s: %w", c.key, err)
		}
		if p.Paging[c.key], err = resultDigest(r); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestFile, append(b, '\n'), 0o644)
}
