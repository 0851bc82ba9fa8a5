package kernel

import (
	"fmt"

	"memhogs/internal/chaos"
	"memhogs/internal/disk"
	"memhogs/internal/events"
	"memhogs/internal/mem"
	"memhogs/internal/pageout"
	"memhogs/internal/pdpm"
	"memhogs/internal/sim"
	"memhogs/internal/vm"
)

// System is the assembled machine: simulator, physical memory, disks,
// daemons, and CPU scheduler.
type System struct {
	Cfg   Config
	Sim   *sim.Sim
	Phys  *mem.Phys
	Disks *disk.Array

	// Far is the optional far-memory tier; nil unless Config.Far.Pages
	// is set.
	Far *mem.FarTier

	// Daemons and Releasers hold one paging daemon and one releaser
	// per memory node; Daemon and Releaser alias node 0 (the only
	// entries on an unsharded machine).
	Daemons   []*pageout.Daemon
	Releasers []*pageout.Releaser
	Daemon    *pageout.Daemon
	Releaser  *pageout.Releaser

	// Balancer migrates free frames between nodes; nil on a
	// single-node machine.
	Balancer *pageout.Balancer

	// Events is the flight recorder, nil (recording off) unless
	// SetEvents installed one.
	Events *events.Recorder

	// Chaos is the fault injector, nil (no faults) unless SetChaos
	// installed one.
	Chaos *chaos.Injector

	cpus       *sim.Sem
	DaemonTime [vm.NumBuckets]sim.Time // CPU consumed by the daemons

	procs      []*Process
	pms        []*pdpm.PM
	audit      auditScratch
	nextID     int
	swapCursor int64
}

// NewSystem builds and boots a system: daemons started, scheduler
// ready. It panics on an invalid configuration (construction is
// programmer-controlled).
func NewSystem(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// The far tier's costs live in vm.Params so the fault path reads
	// them without reaching back into the kernel config.
	cfg.VM.FarLatency = cfg.Far.Latency
	cfg.VM.FarCPU = cfg.Far.CPU
	s := sim.New()
	sys := &System{
		Cfg:  cfg,
		Sim:  s,
		cpus: sim.NewSem("cpus", cfg.NCPU),
	}
	nodes := cfg.Nodes
	if nodes < 1 {
		nodes = 1
	}
	sys.Phys = mem.NewSharded(s, cfg.UserMemPages, nodes)
	nodes = sys.Phys.Nodes() // NewSharded clamps to the frame count
	if cfg.Far.Pages > 0 {
		sys.Far = mem.NewFarTier(cfg.Far.Pages, nodes)
	}

	// Per-node daemons divide the global thresholds so the whole
	// machine keeps the same total reserve; with one node this leaves
	// the paper's tunables untouched.
	dkcfg := cfg.Daemon
	dkcfg.MinFree = cfg.MinFreePages
	dkcfg.TargetFree = cfg.TargetFreePages
	if nodes > 1 {
		dkcfg.MinFree = perNode(dkcfg.MinFree, nodes)
		dkcfg.TargetFree = perNode(dkcfg.TargetFree, nodes)
		if dkcfg.TargetFree < dkcfg.MinFree {
			dkcfg.TargetFree = dkcfg.MinFree
		}
	}
	sys.Phys.LowWater = dkcfg.MinFree
	sys.Phys.FreeChanged = func(free int) {
		for _, pm := range sys.pms {
			pm.FreeMemChanged(free)
		}
	}
	dcfg := cfg.Disk
	if dcfg.Seed == 0 {
		dcfg.Seed = cfg.Seed
	}
	sys.Disks = disk.New(s, dcfg)
	rcfg := cfg.Releaser
	rcfg.FarMinPrio = cfg.Far.MinPrio
	for k := 0; k < nodes; k++ {
		sys.Daemons = append(sys.Daemons, pageout.NewNodeDaemon(sys.Phys, dkcfg, k))
		sys.Releasers = append(sys.Releasers, pageout.NewNodeReleaser(rcfg, k))
	}
	sys.Daemon, sys.Releaser = sys.Daemons[0], sys.Releasers[0]
	if nodes > 1 {
		sys.Balancer = pageout.NewBalancer(sys.Phys, dkcfg.MinFree, dkcfg.TargetFree, dkcfg.PerPage)
	}
	sys.Phys.NeedMemory = func(node int) {
		sys.Daemons[node].Kick()
		if sys.Balancer != nil {
			sys.Balancer.Kick()
		}
	}

	// Interleaved starts keep the historical single-node spawn order
	// ("pageoutd" then "releaserd") and give each node the same local
	// ordering.
	for k := 0; k < nodes; k++ {
		sys.Daemons[k].Start(sys.spawnDaemon)
		sys.Releasers[k].Start(sys.spawnDaemon)
	}
	if sys.Balancer != nil {
		sys.Balancer.Start(sys.spawnDaemon)
	}
	return sys
}

// perNode divides a global page threshold across nodes, never below
// one page.
func perNode(v, nodes int) int {
	v /= nodes
	if v < 1 {
		v = 1
	}
	return v
}

// KickDaemons wakes the paging daemon of one node, or every daemon
// (plus the balancer) when node is out of range — the "some node needs
// memory, not sure which" case chaos hot-unplug uses.
func (sys *System) KickDaemons(node int) {
	if node >= 0 && node < len(sys.Daemons) {
		sys.Daemons[node].Kick()
	} else {
		for _, d := range sys.Daemons {
			d.Kick()
		}
	}
	if sys.Balancer != nil {
		sys.Balancer.Kick()
	}
}

// DaemonStats sums the per-node paging-daemon counters.
func (sys *System) DaemonStats() pageout.DaemonStats {
	var t pageout.DaemonStats
	for _, d := range sys.Daemons {
		t.Activations += d.Stats.Activations
		t.Scanned += d.Stats.Scanned
		t.Invalidations += d.Stats.Invalidations
		t.Stolen += d.Stats.Stolen
		t.Writebacks += d.Stats.Writebacks
		t.Trims += d.Stats.Trims
		t.Donated += d.Stats.Donated
	}
	return t
}

// ReleaserStats sums the per-node releaser counters.
func (sys *System) ReleaserStats() pageout.ReleaserStats {
	var t pageout.ReleaserStats
	for _, r := range sys.Releasers {
		t.Requests += r.Stats.Requests
		t.PagesRequested += r.Stats.PagesRequested
		t.Freed += r.Stats.Freed
		t.SkippedRef += r.Stats.SkippedRef
		t.SkippedGone += r.Stats.SkippedGone
		t.Writebacks += r.Stats.Writebacks
		t.Demoted += r.Stats.Demoted
	}
	return t
}

// BalancerStats returns the inter-node balancer counters (zero on a
// single-node machine).
func (sys *System) BalancerStats() pageout.BalancerStats {
	if sys.Balancer == nil {
		return pageout.BalancerStats{}
	}
	return sys.Balancer.Stats
}

// SetEvents installs the flight recorder on every layer: the daemons,
// all existing address spaces, and (through System.Events) every
// process and run-time layer created afterwards. Call it before
// processes start — typically from driver.RunConfig.OnSystem — so the
// counter registry agrees with the run's statistics.
func (sys *System) SetEvents(r *events.Recorder) {
	sys.Events = r
	sys.Phys.Events = r
	for _, d := range sys.Daemons {
		d.Events = r
	}
	for _, rel := range sys.Releasers {
		rel.Events = r
	}
	if sys.Balancer != nil {
		sys.Balancer.Events = r
	}
	for _, p := range sys.procs {
		p.AS.Events = r
	}
}

// SetChaos installs the fault injector on every layer with injection
// points: the daemons, the disk array, all existing policy modules,
// and (through System.Chaos) every policy module and run-time layer
// created afterwards. Like SetEvents, call it before processes start
// so the whole run sees the same fault plan.
func (sys *System) SetChaos(in *chaos.Injector) {
	sys.Chaos = in
	for _, d := range sys.Daemons {
		d.Chaos = in
	}
	for _, rel := range sys.Releasers {
		rel.Chaos = in
	}
	sys.Disks.Chaos = in
	for _, pm := range sys.pms {
		pm.Chaos = in
	}
	for _, p := range sys.procs {
		p.AS.Chaos = in
	}
}

// Run executes the simulation until idle, the horizon, or a Stop. It
// returns the stop time.
func (sys *System) Run(horizon sim.Time) sim.Time {
	return sys.Sim.Run(horizon)
}

// Now returns the current virtual time.
func (sys *System) Now() sim.Time { return sys.Sim.Now() }

// Procs returns the processes created so far.
func (sys *System) Procs() []*Process { return sys.procs }

// exec implements vm.Exec for one simulated thread: a hog, a
// run-time-layer worker or a system daemon. A CPU charge is a chain of
// events: each quantum-sized slice takes a CPU (granted), holds it
// (sliced) and gives it back, contending with all other runnable
// threads, and is booked to the charge's bucket. A hog awaits it.
type exec struct {
	sys   *System
	proc  *sim.Proc
	times *[vm.NumBuckets]sim.Time
	th    *Thread // the hog thread; nil on a step thread

	left   sim.Time  // charge still to run
	bucket vm.Bucket // the bucket the charge is booked to
	slice  sim.Time  // the slice in progress
	asked  sim.Time  // when the CPU for it was asked for
	then   func()    // runs once the charge is done

	// The steps, bound once: a method value passed to AcquireThen or
	// SleepThen would allocate at every slice.
	grantedFn, slicedFn func()
}

// newExec returns an exec accounting to times; the caller sets proc.
func (sys *System) newExec(times *[vm.NumBuckets]sim.Time, th *Thread) *exec {
	e := &exec{sys: sys, times: times, th: th}
	e.grantedFn, e.slicedFn = e.granted, e.sliced
	return e
}

// Proc implements vm.Exec.
func (e *exec) Proc() *sim.Proc { return e.proc }

// Account implements vm.Exec.
func (e *exec) Account(b vm.Bucket, d sim.Time) { e.times[b] += d }

// SystemThen implements vm.Exec. A hog's pending user computation is
// flushed first so kernel work lands after the computation before it.
//
//simvet:hot
func (e *exec) SystemThen(d sim.Time, k func()) {
	if e.th != nil {
		e.th.FlushUser()
	}
	e.charge(d, vm.BucketSystem, k)
}

// charge consumes d of CPU time booked to bucket b, then runs k.
//
//simvet:hot
func (e *exec) charge(d sim.Time, b vm.Bucket, k func()) {
	e.left, e.bucket, e.then = d, b, k
	e.nextSlice()
}

// nextSlice asks for a CPU for the next slice, or ends the charge.
//
//simvet:hot
func (e *exec) nextSlice() {
	if e.left <= 0 {
		k := e.then
		e.then = nil
		k()
		return
	}
	e.asked = e.proc.Now()
	if e.sys.cpus.AcquireThen(e.proc, e.grantedFn) {
		e.granted()
	}
}

// granted holds the CPU for one slice.
//
//simvet:hot
func (e *exec) granted() {
	if w := e.proc.Now() - e.asked; w > 0 {
		e.times[vm.BucketStallCPU] += w
	}
	e.slice = e.left
	if e.slice > e.sys.Cfg.CPUQuantum {
		e.slice = e.sys.Cfg.CPUQuantum
	}
	e.proc.SleepThen(e.slice, e.slicedFn)
}

// sliced gives the CPU back after a slice.
//
//simvet:hot
func (e *exec) sliced() {
	e.sys.cpus.Release()
	e.times[e.bucket] += e.slice
	e.left -= e.slice
	e.nextSlice()
}

// nop is the continuation of a charge a hog awaits.
func nop() {}

// Process is a simulated user process: one address space, optionally a
// PagingDirected PM, and one or more threads.
type Process struct {
	Sys  *System
	Name string
	AS   *vm.AS
	PM   *pdpm.PM

	// Node is the process's home memory node: allocations prefer its
	// free list and its daemons service this address space. Processes
	// are placed round-robin; always 0 on a single-node machine.
	Node int

	// Times accumulates the main thread's time buckets; WorkerTimes
	// accumulates all helper threads' (the paper reports the
	// application's own execution time; prefetch service happens on
	// separate threads).
	Times       [vm.NumBuckets]sim.Time
	WorkerTimes [vm.NumBuckets]sim.Time

	StartedAt  sim.Time
	FinishedAt sim.Time
	Done       bool

	main *Thread
}

// NewProcess creates a process with an address space of npages virtual
// pages and registers it with the paging daemon.
func (sys *System) NewProcess(name string, npages int) *Process {
	if npages <= 0 {
		panic(fmt.Sprintf("kernel: process %q needs at least one page", name))
	}
	home := sys.nextID % len(sys.Daemons)
	sys.Phys.SetHome(sys.nextID, home)
	p := &Process{Sys: sys, Name: name, Node: home}
	p.AS = vm.NewAS(name, sys.nextID, npages, sys.swapCursor, sys.Phys, sys.Disks, sys.Cfg.VM)
	p.AS.Events = sys.Events
	p.AS.Far = sys.Far
	p.AS.Chaos = sys.Chaos
	sys.nextID++
	// Offset swap bases by a small prime so different processes do not
	// stripe-align with each other.
	sys.swapCursor += int64(npages) + 7
	p.AS.OverLimit = sys.Daemons[home].Kick
	sys.Daemons[home].Register(p.AS)
	sys.procs = append(sys.procs, p)
	return p
}

// HomeDaemon returns the paging daemon of the process's home node.
func (p *Process) HomeDaemon() *pageout.Daemon { return p.Sys.Daemons[p.Node] }

// HomeReleaser returns the releaser of the process's home node.
func (p *Process) HomeReleaser() *pageout.Releaser { return p.Sys.Releasers[p.Node] }

// AttachPM attaches a PagingDirected policy module to the process's
// whole address space. maxRSS <= 0 means unlimited.
func (p *Process) AttachPM(maxRSS int) *pdpm.PM {
	cfg := p.Sys.Cfg.PM
	cfg.MinFree = p.Sys.Cfg.MinFreePages
	cfg.MaxRSS = maxRSS
	p.PM = pdpm.Attach(p.AS, p.Sys.Phys, p.HomeReleaser(), cfg)
	p.PM.Chaos = p.Sys.Chaos
	p.Sys.pms = append(p.Sys.pms, p.PM)
	if maxRSS > 0 {
		p.AS.MaxRSS = maxRSS
	}
	return p.PM
}

// Thread is one simulated thread of a process.
type Thread struct {
	P    *Process
	exec *exec

	pendingUser sim.Time
}

// Start launches the process's main thread running body. When body
// returns the process is marked done; if stopSim is true the whole
// simulation stops (used to end an experiment when the measured
// application finishes).
func (p *Process) Start(stopSim bool, body func(t *Thread)) *Thread {
	t := &Thread{P: p}
	t.exec = p.Sys.newExec(&p.Times, t)
	p.main = t
	p.StartedAt = p.Sys.Now()
	p.Sys.Sim.Spawn(p.Name, func(proc *sim.Proc) {
		t.exec.proc = proc
		body(t)
		t.FlushUser()
		p.FinishedAt = proc.Now()
		p.Done = true
		if stopSim {
			p.Sys.Sim.Stop()
		}
	})
	return t
}

// SpawnWorker launches an event-driven helper thread (a run-time-layer
// worker): a step process named <process>.<name>, whose first step,
// start, runs at the current virtual time. Its time is accounted to
// WorkerTimes. It returns the thread's vm.Exec; Exec.Proc is the step
// process, which blocks only through the continuation forms.
func (p *Process) SpawnWorker(name string, start func()) vm.Exec {
	return p.Sys.spawnStep(p.Name+"."+name, &p.WorkerTimes, start)
}

// spawnDaemon is SpawnWorker for the system daemons (a pageout.Spawn):
// the step process is named name, and its time is accounted to
// DaemonTime.
func (sys *System) spawnDaemon(name string, start func()) vm.Exec {
	return sys.spawnStep(name, &sys.DaemonTime, start)
}

// spawnStep spawns a step thread named name whose time is accounted
// to times, and returns its vm.Exec.
func (sys *System) spawnStep(name string, times *[vm.NumBuckets]sim.Time, start func()) vm.Exec {
	e := sys.newExec(times, nil)
	e.proc = sys.Sim.SpawnStep(name, start)
	return e
}

// Exec returns the thread's vm.Exec context.
func (t *Thread) Exec() vm.Exec { return t.exec }

// Proc returns the underlying simulated process.
func (t *Thread) Proc() *sim.Proc { return t.exec.proc }

// Now returns the current virtual time.
func (t *Thread) Now() sim.Time { return t.exec.proc.Now() }

// User accumulates d of user-mode computation. The time is scheduled
// lazily (see FlushUser) so that page-granular workloads do not
// generate one event per arithmetic strip.
func (t *Thread) User(d sim.Time) {
	t.pendingUser += d
	if t.pendingUser >= t.P.Sys.Cfg.UserFlush {
		t.FlushUser()
	}
}

// PendingUser returns user computation accumulated but not yet
// scheduled (bounded by Config.UserFlush).
func (t *Thread) PendingUser() sim.Time { return t.pendingUser }

// FlushUser schedules any accumulated user computation now.
func (t *Thread) FlushUser() {
	if t.pendingUser > 0 {
		d := t.pendingUser
		t.pendingUser = 0
		t.exec.charge(d, vm.BucketUser, nop)
		t.exec.proc.Await()
	}
}

// Touch references virtual page vpn, taking faults as needed.
func (t *Thread) Touch(vpn int, write bool) vm.Outcome {
	as := t.P.AS
	if as.ResidentValid(vpn) {
		return as.Touch(t.exec, vpn, write)
	}
	// Slow path: make sure accumulated computation happens first so
	// faults land at the right virtual time.
	t.FlushUser()
	return as.Touch(t.exec, vpn, write)
}

// SleepIdle blocks the thread without consuming CPU (the interactive
// task's think time).
func (t *Thread) SleepIdle(d sim.Time) {
	t.FlushUser()
	t.exec.proc.Sleep(d)
}

// Park blocks until another thread wakes the underlying proc.
func (t *Thread) Park() {
	t.FlushUser()
	t.exec.proc.Park()
}

// TotalTime returns the sum of all buckets for the main thread.
func (p *Process) TotalTime() sim.Time {
	var sum sim.Time
	for _, d := range p.Times {
		sum += d
	}
	return sum
}

// Elapsed returns wall-clock (virtual) run time of the main thread.
func (p *Process) Elapsed() sim.Time {
	if p.Done {
		return p.FinishedAt - p.StartedAt
	}
	return p.Sys.Now() - p.StartedAt
}
