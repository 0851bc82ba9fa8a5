// Package memhogs is a library-scale reproduction of Brown & Mowry,
// "Taming the Memory Hogs: Using Compiler-Inserted Releases to Manage
// Physical Memory Intelligently" (OSDI 2000).
//
// It provides, end to end:
//
//   - a small loop-nest language for out-of-core array programs;
//   - the paper's compiler pass: reuse and locality analysis, software
//     pipelined prefetching, and aggressive release insertion with
//     reuse encoded as priorities (equation 2);
//   - the run-time layer with its filtering and the two release
//     policies (aggressive vs buffered, §3.3);
//   - a simulated SGI Origin 200 / IRIX 6.5 platform: global clock
//     replacement with software reference bits, free list with rescue,
//     the PagingDirected policy module and its shared page, a releaser
//     daemon, and striped swap over ten disks (§3.1, Table 1);
//   - the six out-of-core benchmarks of Table 2 and the interactive
//     task of §1.1;
//   - drivers that regenerate every table and figure of §4.
//
// Quick start:
//
//	rep, err := memhogs.RunBenchmark("matvec", memhogs.Buffered, memhogs.DefaultMachine())
//	fmt.Println(rep)
//
// or compile your own program:
//
//	prog, err := memhogs.Compile(src, memhogs.DefaultMachine(), memhogs.Buffered)
//	fmt.Println(prog.Listing())
package memhogs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"memhogs/internal/chaos"
	"memhogs/internal/compiler"
	"memhogs/internal/driver"
	"memhogs/internal/events"
	"memhogs/internal/experiments"
	"memhogs/internal/hogvet"
	"memhogs/internal/kernel"
	"memhogs/internal/lang"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/trace"
	"memhogs/internal/vm"
	"memhogs/internal/workload"
)

// Version selects one of the paper's four program versions.
type Version int

// The paper's program versions (Figure 7's bars).
const (
	Original     Version = iota // unmodified program
	PrefetchOnly                // compiler-inserted prefetching
	Aggressive                  // prefetch + aggressive releasing
	Buffered                    // prefetch + release buffering
)

// String returns the paper's one-letter version name.
func (v Version) String() string { return v.mode().String() }

func (v Version) mode() rt.Mode {
	switch v {
	case Original:
		return rt.ModeOriginal
	case PrefetchOnly:
		return rt.ModePrefetch
	case Aggressive:
		return rt.ModeAggressive
	default:
		return rt.ModeBuffered
	}
}

// Versions lists all four program versions in the paper's order.
func Versions() []Version { return []Version{Original, PrefetchOnly, Aggressive, Buffered} }

// ParseVersion returns the version whose one-letter name is s.
func ParseVersion(s string) (Version, error) {
	for _, v := range Versions() {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown version %q (want O, P, R or B)", s)
}

// Machine describes the simulated platform.
type Machine struct {
	CPUs       int
	MemoryMB   int
	PageSizeKB int
	Disks      int
	Adapters   int
	// FarMemMB adds a CXL-like far-memory tier of that size between
	// DRAM and swap; 0 (the default) means no far tier — released
	// pages go straight to swap as in the paper's platform.
	FarMemMB int
	// Scaled marks the small test machine; it only affects which
	// built-in benchmark sizes RunBenchmark picks.
	Scaled bool
}

// DefaultMachine returns the paper's platform (Table 1): 4 CPUs, 75 MB
// of user memory, 16 KB pages, ten disks on five adapters.
func DefaultMachine() Machine {
	return Machine{CPUs: 4, MemoryMB: 75, PageSizeKB: 16, Disks: 10, Adapters: 5}
}

// TestMachine returns a tiny machine (4 MB) for fast experimentation.
func TestMachine() Machine {
	return Machine{CPUs: 4, MemoryMB: 4, PageSizeKB: 16, Disks: 2, Adapters: 1, Scaled: true}
}

func (m Machine) kernelConfig() kernel.Config {
	cfg := kernel.DefaultConfig()
	if m.Scaled {
		cfg = kernel.TestConfig()
	}
	if m.CPUs > 0 {
		cfg.NCPU = m.CPUs
	}
	if m.PageSizeKB > 0 {
		cfg.PageSize = m.PageSizeKB << 10
	}
	if m.MemoryMB > 0 {
		cfg.UserMemPages = m.MemoryMB << 20 / cfg.PageSize
	}
	if m.Disks > 0 {
		cfg.Disk.NumDisks = m.Disks
	}
	if m.Adapters > 0 {
		cfg.Disk.NumAdapters = m.Adapters
	}
	if m.FarMemMB > 0 {
		cfg.Far.Pages = m.FarMemMB << 20 / cfg.PageSize
	}
	return cfg
}

// Program is a compiled out-of-core program.
type Program struct {
	name string
	comp *compiler.Compiled
	prog *lang.Program
	mach Machine
	ver  Version
}

// Compile parses and compiles a loop-nest program for the given
// machine and version. See the package documentation of internal/lang
// for the surface syntax; examples/quickstart shows a complete
// program.
func Compile(source string, m Machine, v Version) (*Program, error) {
	prog, err := lang.Parse(source)
	if err != nil {
		return nil, err
	}
	comp, err := compiler.Compile(prog, driver.Target(m.kernelConfig(), v.mode()))
	if err != nil {
		return nil, err
	}
	return &Program{name: prog.Name, comp: comp, prog: prog, mach: m, ver: v}, nil
}

// Name returns the program's declared name.
func (p *Program) Name() string { return p.name }

// Listing returns the transformed pseudo-code with the inserted
// prefetch and release calls (the paper's Figure 5 view).
func (p *Program) Listing() string { return p.comp.Listing() }

// SetData attaches a value generator to an indirection index array
// (e.g. BUK's key array); required before running programs with
// a[b[i]] references.
func (p *Program) SetData(array string, fn func(int64) int64) {
	p.prog.SetData(array, fn)
}

// Stats summarizes what the compiler inserted.
type Stats struct {
	Nests, Refs, IndirectRefs                   int
	PrefetchDirectives, ReleaseDirectives       int
	ZeroPriorityReleases, ReusePriorityReleases int
	MisdetectedReuse, UnknownBoundLoops         int
}

// Stats returns the compiler's analysis summary.
func (p *Program) Stats() Stats {
	s := p.comp.Stats
	return Stats{
		Nests: s.Nests, Refs: s.Refs, IndirectRefs: s.IndirectRefs,
		PrefetchDirectives: s.PrefetchDirs, ReleaseDirectives: s.ReleaseDirs,
		ZeroPriorityReleases: s.ZeroPrioReleases, ReusePriorityReleases: s.ReusePrioReleases,
		MisdetectedReuse: s.MisdetectedReuse, UnknownBoundLoops: s.UnknownBoundLoops,
	}
}

// VetFinding is one structured finding from the static hint-safety
// verifier, in plain exported types.
type VetFinding struct {
	Code     string // stable check code, e.g. "HV006"
	Check    string // short check name, e.g. "false-temporal-reuse"
	Severity string // "note", "warning" or "error"
	Position string // program:line (proc p)
	Array    string // array the finding concerns, if any
	Tag      int    // hint tag the finding concerns; -1 if none
	Message  string
	Detail   string
	Fix      string
}

// VetReport is the verifier's output for one compiled program.
type VetReport struct {
	Program  string
	Findings []VetFinding
	Errors   int
	Warnings int
	Notes    int

	text string
}

// HasErrors reports whether any finding is error-severity — the
// condition under which hogc and memhog vet exit non-zero.
func (r *VetReport) HasErrors() bool { return r.Errors > 0 }

// Clean reports whether the schedule produced no findings at
// warning-or-above severity.
func (r *VetReport) Clean() bool { return r.Errors == 0 && r.Warnings == 0 }

// String renders every finding followed by a summary line.
func (r *VetReport) String() string { return r.text }

func vetReport(name string, ds hogvet.Diagnostics) *VetReport {
	r := &VetReport{Program: name, text: ds.String()}
	r.Errors, r.Warnings, r.Notes = ds.Counts()
	for i := range ds {
		d := &ds[i]
		r.Findings = append(r.Findings, VetFinding{
			Code: d.Code, Check: d.Check, Severity: d.Severity.String(),
			Position: d.Pos(), Array: d.Array, Tag: d.Tag,
			Message: d.Message, Detail: d.Detail, Fix: d.Fix,
		})
	}
	return r
}

// Vet runs the static hint-safety verifier (internal/hogvet) over the
// compiled schedule: release-before-last-use, forbidden indirect
// releases, priority consistency against equation (2), duplicate and
// shadowed hints, false temporal reuse from symbolic strides (the
// FFTPDE pathology) and hint floods under unknown bounds (the
// CGM/MGRID overhead).
func (p *Program) Vet() *VetReport {
	return vetReport(p.name, hogvet.Vet(p.comp))
}

// VetWithStats is Vet with the compiler's analysis summary prepended
// as HV000 notes, routed through the same formatter as real findings
// (the hogc -stats view).
func (p *Program) VetWithStats() *VetReport {
	st := p.Stats()
	notes := hogvet.InfoNotes(p.name,
		fmt.Sprintf("analysis: %d nests, %d refs (%d indirect)", st.Nests, st.Refs, st.IndirectRefs),
		fmt.Sprintf("inserted: %d prefetch, %d release (%d zero-priority, %d with reuse)",
			st.PrefetchDirectives, st.ReleaseDirectives, st.ZeroPriorityReleases, st.ReusePriorityReleases),
	)
	return vetReport(p.name, append(notes, hogvet.Vet(p.comp)...))
}

// VetBenchmark compiles a built-in benchmark for the machine (Buffered
// version, so the full prefetch and release schedule is present) and
// runs the verifier over it, with the benchmark's runtime parameters
// bound so the residency certification (HV011–HV013) evaluates at the
// machine's scale.
func VetBenchmark(name string, m Machine) (*VetReport, error) {
	spec, err := specFor(name, m)
	if err != nil {
		return nil, err
	}
	prog, err := Compile(spec.Source, m, Buffered)
	if err != nil {
		return nil, err
	}
	return vetReport(prog.name, hogvet.VetParams(prog.comp, spec.Params)), nil
}

// CertifyBenchmark renders a built-in benchmark's hogflow residency
// certificates (`memhog certify`): one "==== name @ D:F ====" section
// per DRAM:far ratio of the tiering campaign, each holding the
// four-version O/P/R/B report against the machine's memory budget
// split by that ratio. The 1:0 section is the single-tier
// certificate; the others add the far-tier occupancy and
// demotion-flow bounds. The output is a pure function of the
// benchmark and machine, so it is byte-identical across runs and
// worker counts.
func CertifyBenchmark(name string, m Machine) (string, error) {
	spec, err := specFor(name, m)
	if err != nil {
		return "", err
	}
	return experiments.CertifyListing(spec, m.kernelConfig())
}

// RunOptions configures a Program run.
type RunOptions struct {
	// Params binds the program's runtime parameters.
	Params map[string]int64
	// InteractiveSleepMS, if >= 0, runs the paper's interactive task
	// concurrently with the given think time in milliseconds.
	InteractiveSleepMS int
	// RepeatSeconds, if > 0, loops the program until the given virtual
	// time instead of running it once.
	RepeatSeconds int
}

// Report is the outcome of a run, in plain units.
type Report struct {
	Benchmark string
	Version   string

	ElapsedSeconds       float64
	UserSeconds          float64
	SystemSeconds        float64
	StallResourceSeconds float64
	StallIOSeconds       float64

	HardFaults       int64
	SoftFaults       int64
	SoftFaultsDaemon int64
	RescueFaults     int64
	PageIns          int64

	DaemonActivations int64
	PagesStolen       int64
	PagesReleased     int64
	ReleasesRescued   int64

	PrefetchesIssued   int64
	PrefetchesFiltered int64
	ReleaseCalls       int64

	InteractiveMeanResponseMS  float64
	InteractivePageInsPerSweep float64
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s): %.3fs elapsed\n", r.Benchmark, r.Version, r.ElapsedSeconds)
	fmt.Fprintf(&b, "  user %.3fs  system %.3fs  stall-resources %.3fs  stall-io %.3fs\n",
		r.UserSeconds, r.SystemSeconds, r.StallResourceSeconds, r.StallIOSeconds)
	fmt.Fprintf(&b, "  faults: %d hard, %d soft (%d daemon-caused), %d rescued; %d pages read\n",
		r.HardFaults, r.SoftFaults, r.SoftFaultsDaemon, r.RescueFaults, r.PageIns)
	fmt.Fprintf(&b, "  daemon: %d activations, %d pages stolen; releaser: %d pages freed (%d rescued)\n",
		r.DaemonActivations, r.PagesStolen, r.PagesReleased, r.ReleasesRescued)
	if r.InteractiveMeanResponseMS > 0 {
		fmt.Fprintf(&b, "  interactive: %.2f ms mean response, %.1f pages read per sweep\n",
			r.InteractiveMeanResponseMS, r.InteractivePageInsPerSweep)
	}
	return b.String()
}

func report(name string, v Version, res *driver.Result) *Report {
	return &Report{
		Benchmark:            name,
		Version:              v.String(),
		ElapsedSeconds:       res.Elapsed.Seconds(),
		UserSeconds:          res.Times[vm.BucketUser].Seconds(),
		SystemSeconds:        res.Times[vm.BucketSystem].Seconds(),
		StallResourceSeconds: res.StallResources().Seconds(),
		StallIOSeconds:       res.Times[vm.BucketStallIO].Seconds(),

		HardFaults:       res.VM.HardFaults,
		SoftFaults:       res.VM.SoftFaults,
		SoftFaultsDaemon: res.VM.SoftFaultsDaemon,
		RescueFaults:     res.VM.RescueFaults,
		PageIns:          res.VM.PageIns,

		DaemonActivations: res.Daemon.Activations,
		PagesStolen:       res.Daemon.Stolen,
		PagesReleased:     res.Releaser.Freed,
		ReleasesRescued:   res.Phys.RescuedRelease,

		PrefetchesIssued:   res.RT.PrefetchIssued,
		PrefetchesFiltered: res.RT.PrefetchFiltered,
		ReleaseCalls:       res.RT.ReleaseCalls,

		InteractiveMeanResponseMS:  res.Interactive.MeanResponse.Millis(),
		InteractivePageInsPerSweep: res.Interactive.MeanPageIns,
	}
}

// config maps the options onto the driver's base configuration for
// one version on one machine.
func (o RunOptions) config(m Machine, v Version) driver.RunConfig {
	cfg := driver.DefaultRunConfig(v.mode())
	cfg.Kernel = m.kernelConfig()
	cfg.Params = o.Params
	if o.InteractiveSleepMS >= 0 {
		cfg.InteractiveSleep = sim.Time(o.InteractiveSleepMS) * sim.Millisecond
	}
	if o.RepeatSeconds > 0 {
		cfg.Repeat = true
		cfg.Horizon = sim.Time(o.RepeatSeconds) * sim.Second
	}
	return cfg
}

// Run executes the compiled program on its machine.
func (p *Program) Run(opts RunOptions) (*Report, error) {
	res, err := driver.RunCompiled(p.name, p.comp, opts.config(p.mach, p.ver))
	if err != nil {
		return nil, err
	}
	return report(p.name, p.ver, res), nil
}

// BenchmarkNames lists the built-in Table 2 benchmarks.
func BenchmarkNames() []string {
	var names []string
	for _, s := range workload.All() {
		names = append(names, s.Name)
	}
	return names
}

// BenchmarkSource returns the loop-language source of a built-in
// benchmark (full-size unless the machine is scaled).
func BenchmarkSource(name string, m Machine) (string, error) {
	spec, err := specFor(name, m)
	if err != nil {
		return "", err
	}
	return spec.Source, nil
}

func specFor(name string, m Machine) (*workload.Spec, error) {
	if m.Scaled {
		return workload.ScaledByName(name)
	}
	return workload.ByName(name)
}

// RunBenchmark runs one built-in benchmark in one version on the given
// machine, with no interactive task.
func RunBenchmark(name string, v Version, m Machine) (*Report, error) {
	return RunBenchmarkOpts(name, v, m, RunOptions{InteractiveSleepMS: -1})
}

// RunBenchmarkOpts is RunBenchmark with interactive/repeat options.
func RunBenchmarkOpts(name string, v Version, m Machine, opts RunOptions) (*Report, error) {
	spec, err := specFor(name, m)
	if err != nil {
		return nil, err
	}
	res, err := driver.Run(spec, opts.config(m, v))
	if err != nil {
		return nil, err
	}
	return report(name, v, res), nil
}

// Campaign configures a batch of experiment runs. The zero value is
// the paper's full-scale serial campaign; set Quick for the scaled
// machine and Workers to run the campaign's independent simulations on
// a worker pool (0 means one worker per CPU, 1 forces serial). Every
// run is an isolated deterministic simulation, so the rendered tables
// and figures are byte-identical at any worker count; only the order
// of Progress lines varies.
type Campaign struct {
	Quick    bool
	Workers  int
	Progress io.Writer
}

// opts is the campaign's configuration over benches (none = all six).
func (c Campaign) opts(benches ...string) experiments.Opts {
	o := experiments.Default()
	if c.Quick {
		o = experiments.Quick()
	}
	o.Workers = c.Workers
	o.Progress = c.Progress
	o.Benches = benches
	return o
}

// Experiment regenerates one of the paper's tables or figures, or an
// extra such as "locks", and returns the rendered text. ExperimentIDs
// lists the valid ids.
func (c Campaign) Experiment(id string) (string, error) {
	return experiments.NewSession(c.opts()).Experiment(id)
}

// ExperimentIDs lists every experiment id: the paper's tables and
// figures in paper order, then the extras.
func ExperimentIDs() []string { return experiments.IDs() }

// Duel runs two out-of-core benchmarks concurrently in each program
// version — the multiprogrammed scenario the paper's introduction
// motivates. The table shows both hogs' elapsed times and how many
// pages the daemon stole from each.
func Duel(benchA, benchB string, m Machine) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "duel: %s vs %s\n", benchA, benchB)
	fmt.Fprintf(&b, "%-8s %14s %14s %12s %12s\n", "version",
		benchA+" time", benchB+" time", "stolen(A)", "stolen(B)")
	specA, err := specFor(benchA, m)
	if err != nil {
		return "", err
	}
	specB, err := specFor(benchB, m)
	if err != nil {
		return "", err
	}
	for _, v := range Versions() {
		ra, rb, err := driver.RunPair(specA, specB, RunOptions{InteractiveSleepMS: -1}.config(m, v))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-8s %14s %14s %12d %12d\n",
			v.String(), ra.Elapsed.String(), rb.Elapsed.String(), ra.VM.StolenPages, rb.VM.StolenPages)
	}
	b.WriteString("Expected shape: with releasing (R/B) the hogs stop stealing from each other.\n")
	return b.String(), nil
}

// Sensitivity sweeps the machine's memory size for one benchmark,
// comparing prefetch-only against buffered releasing from
// memory-starved to data-fits (a study the paper's fixed 75 MB
// platform leaves open).
func (c Campaign) Sensitivity(bench string) (string, error) {
	s, err := experiments.RunSensitivity(c.opts(), bench, nil)
	if err != nil {
		return "", err
	}
	return experiments.FormatSensitivity(s).String(), nil
}

// Tenants runs the multi-tenant datacenter-node campaign: a
// NUMA-sharded machine (per-node free lists, clock daemons and
// releasers, plus an inter-node free-frame balancer) where a hog
// population collides with an open-loop stream of short interactive
// jobs. The table reports the job response-time tail (p50/p99/p999)
// per benchmark and program version, with the node-local/remote
// allocation split and balancer traffic that produced it. benches
// filters the hog benchmark set (none = all six).
func (c Campaign) Tenants(benches ...string) (string, error) {
	m, err := experiments.RunMultiTenant(c.opts(benches...))
	if err != nil {
		return "", err
	}
	return experiments.TenantTable(m).String(), nil
}

// Tiering runs the memory-tiering campaign: the machine's memory
// budget split between DRAM and a CXL-like far tier at several ratios
// (1:0 through 1:3), with the compiler's eq. 2 reuse priorities
// steering released pages to the far tier instead of swap. The table
// reports elapsed time, hard faults, and tier traffic per benchmark,
// version, and split — the figure the paper's 2000 hardware could not
// draw. benches filters the benchmark set (none = all six).
func (c Campaign) Tiering(benches ...string) (string, error) {
	d, err := experiments.RunTiering(c.opts(benches...))
	if err != nil {
		return "", err
	}
	if err := d.Check(); err != nil {
		return "", err
	}
	return experiments.TieringTable(d).String(), nil
}

// Timeline runs one benchmark version with a concurrent interactive
// task and returns an ASCII timeline of the memory system's dynamics:
// free pages, per-process resident sets, and cumulative daemon and
// releaser activity.
func Timeline(name string, v Version, m Machine, seconds int, sleepMS int) (string, error) {
	spec, err := specFor(name, m)
	if err != nil {
		return "", err
	}
	if seconds <= 0 {
		seconds = 20
	}
	cfg := RunOptions{InteractiveSleepMS: sleepMS, RepeatSeconds: seconds}.config(m, v)
	var rec *trace.Recorder
	cfg.OnSystem = func(sys *kernel.System) {
		rec = trace.Attach(sys, cfg.Horizon/60)
	}
	if _, err := driver.Run(spec, cfg); err != nil {
		return "", err
	}
	return rec.Render(60) + rec.Summary() + "\n", nil
}

// TraceResult is the flight recorder's output for one run: the run's
// summary report, the human-readable merged event log, the Chrome
// trace-event JSON (load chrome://tracing or https://ui.perfetto.dev),
// and the exact per-kind counter registry (unaffected by ring drops).
type TraceResult struct {
	Report     *Report
	Log        string // merged event log + counter summary
	Summary    string // just the counter summary
	ChromeJSON []byte
	Events     int              // events retained in the bounded ring
	Dropped    int64            // events the ring discarded (oldest first)
	Counters   map[string]int64 // exact totals by event-kind name
}

// traceCapacity bounds the flight recorder's ring for Trace runs
// (~23 MB of events); older events are dropped and counted, the
// counter registry stays exact.
const traceCapacity = 1 << 18

// Trace runs one benchmark version with the event-level flight
// recorder attached to every layer (vm faults, daemon sweeps and
// steals, releaser outcomes, run-time hint filtering and buffering,
// shared-page updates) and returns the recorded stream. seconds <= 0
// runs the program once to completion; sleepMS >= 0 adds the
// concurrent interactive task. The output is fully deterministic: the
// same arguments always produce byte-identical ChromeJSON.
func Trace(name string, v Version, m Machine, seconds int, sleepMS int) (*TraceResult, error) {
	spec, err := specFor(name, m)
	if err != nil {
		return nil, err
	}
	// A positive seconds bounds the single run; it does not loop it.
	cfg := RunOptions{InteractiveSleepMS: sleepMS}.config(m, v)
	if seconds > 0 {
		cfg.Horizon = sim.Time(seconds) * sim.Second
	}
	var rec *events.Recorder
	cfg.OnSystem = func(sys *kernel.System) {
		rec = events.New(sys.Sim, traceCapacity)
		sys.SetEvents(rec)
	}
	res, err := driver.Run(spec, cfg)
	if err != nil {
		return nil, err
	}
	counts := rec.Counts()
	counters := make(map[string]int64)
	for k := events.Kind(0); k < events.KindCount; k++ {
		if counts[k] != 0 {
			counters[k.String()] = counts[k]
		}
	}
	// Chrome, the largest export, is built while only the ring is
	// live, so a collection its buffer triggers does not mark the Log
	// as well; that keeps the heap goal, and the resident set, lower.
	chrome := rec.Chrome()
	return &TraceResult{
		Report:     report(name, v, res),
		Log:        rec.Log(),
		Summary:    rec.CounterSummary(),
		ChromeJSON: chrome,
		Events:     rec.Len(),
		Dropped:    rec.Dropped(),
		Counters:   counters,
	}, nil
}

// ChaosOptions configures a fault-injection run.
type ChaosOptions struct {
	// Seed drives every probabilistic fault decision. Equal seeds (with
	// equal faults, benchmark, version and machine) replay the run
	// byte-for-byte, which is how a failure found by the property
	// harness is reproduced.
	Seed uint64
	// Faults selects what to inject: a named fault class (see
	// ChaosClasses) or a plan string such as
	// "releaser-stall:p=0.1,mag=5ms;disk-error:p=0.02". Empty means
	// "all" — every class combined.
	Faults string
	// AuditEveryMS is the continuous-audit cadence in virtual
	// milliseconds; 0 picks a default (5 ms on the scaled machine,
	// 100 ms at full scale). The whole machine is additionally audited
	// after every injected fault.
	AuditEveryMS int
	// InteractiveSleepMS, if >= 0, runs the paper's interactive task
	// concurrently with the given think time in milliseconds. The
	// zero value runs it with no think time; replaying a run of
	// memhog chaos, the chaos matrix or the property harness needs -1.
	InteractiveSleepMS int
	// Seconds, if > 0, loops the program until the given virtual time
	// instead of running it once.
	Seconds int
}

// ChaosReport is a Report plus the injection and auditing record.
type ChaosReport struct {
	*Report
	// Plan is the canonical plan string; feeding it back through
	// ChaosOptions.Faults replays this exact run.
	Plan          string
	Injected      map[string]int64 // injected faults by site name
	InjectedTotal int64
	AuditTicks    int // cadence audits performed, all clean
}

// String renders the run summary followed by the injection record.
func (r *ChaosReport) String() string {
	var b strings.Builder
	b.WriteString(r.Report.String())
	fmt.Fprintf(&b, "  chaos: %d faults injected, %d clean audits\n",
		r.InjectedTotal, r.AuditTicks)
	sites := make([]string, 0, len(r.Injected))
	for s := range r.Injected {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	for _, s := range sites {
		fmt.Fprintf(&b, "    %-16s %d\n", s, r.Injected[s])
	}
	fmt.Fprintf(&b, "  plan: %s\n", r.Plan)
	return b.String()
}

// ChaosClasses lists the named fault classes, in their stable order.
func ChaosClasses() []string { return chaos.ClassNames() }

// chaosPlan resolves the Faults option: a class name, or a parseable
// plan string. An explicit Seed option overrides a seed= plan entry.
func chaosPlan(faults string, seed uint64) (chaos.Plan, error) {
	if faults == "" {
		faults = "all"
	}
	if p, err := chaos.ClassPlan(faults, seed); err == nil {
		return p, nil
	}
	p, err := chaos.ParsePlan(faults)
	if err != nil {
		return chaos.Plan{}, fmt.Errorf("%w (or name a fault class: %s)",
			err, strings.Join(chaos.ClassNames(), " "))
	}
	if seed != 0 || p.Seed == 0 {
		p.Seed = seed
	}
	return p, nil
}

// Chaos runs one built-in benchmark version under deterministic fault
// injection with continuous invariant auditing: the whole machine is
// audited on a virtual-time cadence and after every injected fault,
// and any corruption fails the run with the audit's diagnosis. A
// completed run therefore certifies that the injected faults only
// degraded throughput — they never corrupted memory-system state or
// wedged the machine. The run is built like the chaos matrix's and the
// property harness's: a plan that arms a far-tier site on a machine
// with no far tier runs with the memory budget split DRAM:far 3:1.
func Chaos(name string, v Version, m Machine, opts ChaosOptions) (*ChaosReport, error) {
	spec, err := specFor(name, m)
	if err != nil {
		return nil, err
	}
	plan, err := chaosPlan(opts.Faults, opts.Seed)
	if err != nil {
		return nil, err
	}
	cfg := experiments.ChaosConfig(RunOptions{InteractiveSleepMS: opts.InteractiveSleepMS}.config(m, v), plan, m.Scaled)
	if opts.AuditEveryMS > 0 {
		cfg.AuditEvery = sim.Time(opts.AuditEveryMS) * sim.Millisecond
	}
	if opts.Seconds > 0 {
		cfg.Repeat, cfg.Horizon = true, sim.Time(opts.Seconds)*sim.Second
	}
	res, err := driver.Run(spec, cfg)
	if err != nil {
		return nil, err
	}
	return &ChaosReport{
		Report:        report(name, v, res),
		Plan:          plan.String(),
		Injected:      res.Chaos.Map(),
		InjectedTotal: res.Chaos.Total(),
		AuditTicks:    res.AuditTicks,
	}, nil
}

// ChaosMatrix runs the chaos campaign — every benchmark × version ×
// fault class, each cell fully audited — and returns the rendered
// matrix. The error reports the first cell that wedged, skipped its
// audits, or lost the paper's Buffered-beats-Original ordering under
// faults; the rendered matrix is returned alongside it for diagnosis.
func (c Campaign) ChaosMatrix(seed uint64) (string, error) {
	m, err := experiments.RunChaosMatrix(c.opts(), seed)
	if err != nil {
		return "", err
	}
	out := experiments.FormatChaosMatrix(m).String()
	if err := m.Check(); err != nil {
		return out, err
	}
	return out, nil
}

// Verify runs the three experiment campaigns and checks the paper's
// headline claims against the reproduction, returning the rendered
// claim table and whether every claim held.
func (c Campaign) Verify() (string, bool, error) {
	return experiments.NewSession(c.opts()).Verify()
}

// All regenerates every table and figure in paper order, sharing the
// underlying runs between the figures the paper derives from the same
// data (Figure 7/8/9 and Table 3 share one campaign; Figures 1 and
// 10(a) share the sleep sweep; Figures 10(b) and 10(c) share the
// interactive campaign).
func (c Campaign) All() (string, error) {
	return experiments.NewSession(c.opts()).All()
}

// Render writes, for each name in turn, what Experiment returns plus a
// newline for an experiment id, what All returns for "all" and what
// Verify returns for "verify", running each campaign at most once for
// the whole list. It checks every name before running anything, and
// reports whether every claim of every "verify" held.
func (c Campaign) Render(w io.Writer, names ...string) (bool, error) {
	return experiments.NewSession(c.opts()).Render(w, names)
}
