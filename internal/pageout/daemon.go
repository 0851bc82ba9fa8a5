// Package pageout implements the system daemons of the model:
//
//   - Daemon, the stock paging daemon ("vhand"): a clock algorithm
//     over physical frames that simulates reference bits in software
//     by invalidating mappings on its first pass and stealing pages
//     whose mapping is still invalid on a later pass. It holds each
//     address space's memory lock for long, batch-sized stretches,
//     which is the source of the lock contention the paper measures.
//   - Releaser, the new daemon added for the PagingDirected policy
//     module: it frees only pages pre-identified by release requests,
//     checking first that they have not been referenced again, in
//     small batches with little per-page work (§3.1.2).
//   - Balancer, which on a machine with more than one memory node
//     migrates free frames from a rich node to a poor one.
//
// Each daemon is a step process (sim.SpawnStep) with no goroutine: its
// loop is a state machine whose waits are the continuation forms of
// sim's blocking calls (see stepper), so a per-page CPU charge costs
// events but no goroutine switch.
package pageout

import (
	"strconv"

	"memhogs/internal/chaos"
	"memhogs/internal/events"
	"memhogs/internal/mem"
	"memhogs/internal/sim"
	"memhogs/internal/vm"
)

// DaemonConfig parameterizes the paging daemon.
type DaemonConfig struct {
	MinFree    int      // wake when free memory falls below this (min_freemem)
	TargetFree int      // steal until free memory reaches this (desfree)
	PerPage    sim.Time // CPU cost per frame examined
	Batch      int      // frames processed per lock hold
}

// DaemonStats counts paging-daemon activity (Table 3, Figure 8).
type DaemonStats struct {
	Activations   int64 // times the daemon had to operate
	Scanned       int64 // frames examined
	Invalidations int64 // reference-bit emulation invalidations
	Stolen        int64 // pages reclaimed
	Writebacks    int64 // dirty pages written back
	Trims         int64 // pages stolen for maxrss enforcement
	Donated       int64 // pages volunteered by reactive donors (§2.2)
}

// Donor is a cooperating process's victim provider for the *reactive*
// application-managed replacement scheme the paper discusses (§2.2,
// the VINO-style approach): when the daemon must reclaim, it first
// asks donors which of their pages to take. The callback must not
// block; it returns up to max virtual page numbers.
type Donor struct {
	AS   *vm.AS
	Pick func(max int) []int
}

// Daemon is the paging daemon. It runs as a step process (see
// stepper).
type Daemon struct {
	phys *mem.Phys
	cfg  DaemonConfig
	st   stepper

	ases   []*vm.AS
	donors []Donor

	// The daemon owns one node's frame region [base, limit); its clock
	// hand never leaves it. With one node the region is the whole pool.
	node        int
	base, limit int
	hand        int
	name        string // "pageoutd" on node 0, "pageoutd<k>" elsewhere

	wake    *sim.Waitq
	kicked  bool
	Stats   DaemonStats
	Enabled bool

	// stormExtra inflates the steal target for the current activation
	// (chaos steal storms); zero outside injected storms.
	stormExtra int

	// The loop's position (see step): its state, and per phase of an
	// activation what the phase works through. The donor and trim
	// phases walk the donor and address-space lists as they were when
	// the phase began, as a range loop would.
	state     int
	donorList []Donor
	donor     int   // donorList index
	picked    []int // the pages the donor volunteered
	pick      int   // picked index
	swept     int   // positions the sweep has covered
	batchAS   *vm.AS
	processed int        // positions the batch has covered
	frame     *mem.Frame // the frame being scanned
	trimList  []*vm.AS
	trim      int // trimList index
	trimFrom  int // the trim's next search position
	trimVPN   int // the page being trimmed

	// Events is the flight recorder; nil disables recording.
	Events *events.Recorder

	// Chaos is the fault injector; nil injects nothing.
	Chaos *chaos.Injector

	// testVisit, when non-nil (tests only), observes every frame
	// position the clock hand moves over: scanned=true for frames
	// examined under the memory lock, false for frames passed over as
	// unscannable. Concatenated across a run the positions are the
	// hand's complete cyclic walk, so the wrap-arithmetic regression
	// test can assert the walk never skips or double-visits a frame.
	testVisit func(frame int, scanned bool)
}

// reportSkips feeds n skipped positions starting at from into the test
// hook, wrapping within the daemon's region; a no-op in production.
func (d *Daemon) reportSkips(from, n int) {
	if d.testVisit == nil {
		return
	}
	rs := d.limit - d.base
	for k := 0; k < n; k++ {
		d.testVisit(d.base+(from-d.base+k)%rs, false)
	}
}

// NewNodeDaemon creates the paging daemon for one memory node: its
// clock sweeps only that node's frame region and its free-memory
// thresholds apply to that node's free list (with an unsharded pool,
// node 0's daemon covers all of physical memory). Start must be called
// before the simulation runs.
func NewNodeDaemon(phys *mem.Phys, cfg DaemonConfig, node int) *Daemon {
	base, limit := phys.NodeRange(node)
	d := &Daemon{
		phys:    phys,
		cfg:     cfg,
		node:    node,
		base:    base,
		limit:   limit,
		hand:    base,
		name:    daemonName("pageoutd", node),
		wake:    sim.NewWaitq("pageout.wake"),
		Enabled: true,
	}
	return d
}

// daemonName keeps the historical node-0 process names ("pageoutd",
// "releaserd") and suffixes the node index elsewhere.
func daemonName(base string, node int) string {
	if node == 0 {
		return base
	}
	return base + strconv.Itoa(node)
}

// Node returns the memory node this daemon serves.
func (d *Daemon) Node() int { return d.node }

// free is the daemon's view of free memory: its own node's free list.
func (d *Daemon) free() int { return d.phys.FreeCountNode(d.node) }

// Register adds an address space to the daemon's scan set.
func (d *Daemon) Register(as *vm.AS) { d.ases = append(d.ases, as) }

// RegisterDonor adds a reactive victim provider; the daemon consults
// donors before falling back to its clock.
func (d *Daemon) RegisterDonor(dn Donor) { d.donors = append(d.donors, dn) }

// Kick asks the daemon to run soon. Safe from any context; it is wired
// to mem.Phys.NeedMemory.
func (d *Daemon) Kick() {
	d.kicked = true
	d.wake.WakeOne()
}

// Start launches the daemon's step process through spawn, which
// also supplies its CPU accounting.
func (d *Daemon) Start(spawn Spawn) { d.st.start(spawn, d.name, d.step) }

func (d *Daemon) needed() bool {
	if !d.Enabled {
		return false
	}
	if d.free() < d.cfg.MinFree {
		return true
	}
	for _, as := range d.ases {
		if as.Resident > as.MaxRSS {
			return true
		}
	}
	return false
}

// target is the free-page goal of the current activation: desfree,
// plus any injected storm surplus.
func (d *Daemon) target() int { return d.cfg.TargetFree + d.stormExtra }

// The daemon's states: where its loop goes on when it runs next.
const (
	// An activation: wait until needed, then ask the donors, sweep
	// the clock and trim processes over their maxrss.
	dmnIdle = iota // wait until the daemon is needed, or activate
	// The donor phase collects volunteered victims from cooperating
	// processes and reclaims exactly those (the reactive §2.2 scheme).
	// Pages they volunteer spare the clock (and everyone else's
	// pages).
	dmnDonor     // ask the next donor, or end the phase
	dmnDonorPage // charge for the next volunteered page, or unlock
	dmnDonated   // the page's charge is done: reclaim it
	// The sweep steals pages until free memory reaches the target or
	// the clock has swept all frames twice (one invalidate pass plus
	// one steal pass), one batch at a time.
	dmnSweep   // start the next batch, or end the sweep
	dmnBatch   // advance the hand within the batch, or end it
	dmnScanned // the frame's charge is done: run the clock on it
	// The trim phase enforces per-process resident-set limits (IRIX
	// maxrss): processes above their limit are trimmed with the same
	// invalidate-then-steal discipline, scoped to one address space.
	dmnTrim     // find the next process over its limit, or end the activation
	dmnTrimPage // charge for the process's next idle resident page, or unlock
	dmnTrimmed  // the page's charge is done: run the clock on it
)

// step is one transition of the daemon's loop.
//
//simvet:hot
func (d *Daemon) step() {
	switch d.state {
	case dmnIdle:
		d.kicked = false
		if !d.needed() {
			d.st.wait(d.wake)
			return
		}
		d.Stats.Activations++
		d.Events.Emit(events.DaemonWake, d.name, "", -1, int64(d.free()), 0)
		// Chaos: a steal storm inflates this activation's target, so
		// the clock reclaims far past desfree (over-eager vhand).
		d.stormExtra = d.Chaos.FireExtra(chaos.DaemonStorm, d.name)
		d.donorList, d.donor = d.donors, 0
		d.state = dmnDonor
	case dmnDonor:
		d.askDonor()
	case dmnDonorPage:
		if d.pick == len(d.picked) {
			d.donorList[d.donor].AS.Memlock.Release(d.st.p)
			d.picked = nil
			d.donor++
			d.state = dmnDonor
			return
		}
		d.state = dmnDonated
		d.st.charge(d.cfg.PerPage)
	case dmnDonated:
		d.donated(d.donorList[d.donor].AS, d.picked[d.pick])
		d.pick++
		d.state = dmnDonorPage
	case dmnSweep:
		d.startBatch()
	case dmnBatch:
		d.scanBatch()
	case dmnScanned:
		d.scanned()
	case dmnTrim:
		d.startTrim()
	case dmnTrimPage:
		d.trimPage()
	case dmnTrimmed:
		d.Stats.Scanned++
		d.clock(d.trimList[d.trim], d.trimVPN, 1)
		d.state = dmnTrimPage
	}
}

// askDonor asks the current donor for victims and locks its address
// space to reclaim them; it ends the donor phase when free memory
// reaches the target or no donor is left.
//
//simvet:hot
func (d *Daemon) askDonor() {
	need := d.target() - d.free()
	if d.donor == len(d.donorList) || need <= 0 {
		d.donorList = nil
		d.swept, d.state = 0, dmnSweep
		return
	}
	dn := d.donorList[d.donor]
	vpns := dn.Pick(need)
	if len(vpns) == 0 {
		d.donor++
		return
	}
	d.picked, d.pick = vpns, 0
	d.state = dmnDonorPage
	d.st.acquire(dn.AS.Memlock)
}

// donated reclaims one volunteered page. Caller holds Memlock.
//
//simvet:hot
func (d *Daemon) donated(as *vm.AS, vpn int) {
	as.InvalidateForRelease(vpn)
	freed, dirty := as.TryReclaim(vpn, mem.FreedRelease)
	if !freed {
		return
	}
	d.Stats.Donated++
	d.Events.Emit(events.DaemonDonated, d.name, as.OwnerName(), vpn, int64(d.free()), 0)
	if dirty {
		d.Stats.Writebacks++
		as.WriteBack(vpn)
	}
}

// startBatch begins the sweep's next batch, or ends the sweep. A batch
// advances the clock hand over up to Batch frames of a single address
// space, holding that space's memory lock for the whole batch (the
// long lock holds that inflate fault service times in the paper). It
// starts at the first frame owned by an address space, at or after
// the hand. No virtual time passes in this search, so finding nothing
// is a stable outcome for the whole sweep: it ends.
//
//simvet:hot
func (d *Daemon) startBatch() {
	rs := d.limit - d.base
	if d.free() >= d.target() || d.swept >= 2*rs {
		d.endSweep()
		return
	}
	var as *vm.AS
	pos := d.hand
	for tries := 0; tries < rs; tries++ {
		i := d.phys.NextAllocatedIn(pos, d.base, d.limit)
		if i < 0 {
			break
		}
		if a, ok := d.phys.Frame(mem.FrameID(i)).Owner.(*vm.AS); ok {
			d.reportSkips(d.hand, (i-d.hand+rs)%rs)
			d.hand = i
			as = a
			break
		}
		pos = d.base + (i+1-d.base)%rs
	}
	if as == nil {
		d.endSweep() // nothing scannable anywhere
		return
	}
	d.batchAS, d.processed = as, 0
	d.state = dmnBatch
	d.st.acquire(as.Memlock)
}

// scanBatch advances the hand within the batch up to the next frame to
// scan, and charges for examining it; it ends the batch when the
// budget is spent or the hand reaches another address space's frame.
// Runs of free or offline frames are skipped word-at-a-time over the
// allocated bitmap; they still charge the batch budget one position
// per frame, so a batch covers the same span the per-frame walk did.
// The hand only ever moves forward, and only past positions this batch
// is done with: a batch boundary (a frame owned by another address
// space) leaves it parked on the boundary frame instead of stepping it
// back with modular arithmetic, so a concurrent hot-unplug can never
// make the hand retreat over (and re-visit or skip) frames.
//
//simvet:hot
func (d *Daemon) scanBatch() {
	rs := d.limit - d.base
	for d.processed < d.cfg.Batch {
		i := d.hand
		if !d.phys.FrameAllocated(i) {
			// A run of free or offline frames: skip straight to the
			// next allocated frame (or spend the rest of the budget).
			gap := d.cfg.Batch - d.processed
			if next := d.phys.NextAllocatedIn(i, d.base, d.limit); next >= 0 {
				if dist := (next - i + rs) % rs; dist > 0 && dist < gap {
					gap = dist
				}
			}
			d.reportSkips(i, gap)
			d.hand = d.base + (i+gap-d.base)%rs
			d.processed += gap
			continue
		}
		f := d.phys.Frame(mem.FrameID(i))
		if f.Owner == nil {
			// Allocated but anonymous; pass over it.
			d.reportSkips(i, 1)
			d.hand = d.base + (i+1-d.base)%rs
			d.processed++
			continue
		}
		fas, ok := f.Owner.(*vm.AS)
		if !ok || fas != d.batchAS {
			// Crossed into another address space; end the batch with
			// the hand parked on the boundary frame so the next batch
			// starts here under that space's lock.
			break
		}
		d.hand = d.base + (i+1-d.base)%rs
		d.processed++
		if d.testVisit != nil {
			d.testVisit(i, true)
		}
		d.Stats.Scanned++
		d.frame = f
		d.state = dmnScanned
		d.st.charge(d.cfg.PerPage)
		return
	}
	d.endBatch()
}

// scanned runs the clock on the frame just examined, unless its page
// is in transit, and ends the batch once free memory reaches the
// target.
//
//simvet:hot
func (d *Daemon) scanned() {
	as, vpn := d.batchAS, d.frame.VPN
	d.frame = nil
	d.state = dmnBatch
	if as.PTE(vpn).Busy {
		return
	}
	if d.clock(as, vpn, 0) && d.free() >= d.target() {
		d.endBatch()
	}
}

// endBatch unlocks the batch's address space and books the positions
// it covered: at least one, so the sweep always advances.
//
//simvet:hot
func (d *Daemon) endBatch() {
	d.batchAS.Memlock.Release(d.st.p)
	d.batchAS = nil
	d.swept += max(d.processed, 1)
	d.state = dmnSweep
}

// endSweep ends the sweep and begins the trim.
//
//simvet:hot
func (d *Daemon) endSweep() {
	d.trimList, d.trim = d.ases, 0
	d.state = dmnTrim
}

// startTrim locks the next address space over its maxrss, or ends the
// activation.
//
//simvet:hot
func (d *Daemon) startTrim() {
	for ; d.trim < len(d.trimList); d.trim++ {
		as := d.trimList[d.trim]
		if as.Resident <= as.MaxRSS {
			continue
		}
		d.Stats.Activations++
		d.Events.Emit(events.DaemonWake, d.name, as.OwnerName(), -1, int64(d.free()), 1)
		d.trimFrom, d.state = 0, dmnTrimPage
		d.st.acquire(as.Memlock)
		return
	}
	d.trimList = nil
	d.stormExtra = 0
	d.state = dmnIdle
}

// trimPage charges for examining the trimmed space's next idle
// resident page, or unlocks the space once it is back under its limit
// or has no resident page left. It walks resident pages word-at-a-time
// over the residency bitmap; everything it skips is exactly what the
// per-PTE walk skipped (the bitmap mirrors PTE.Present).
//
//simvet:hot
func (d *Daemon) trimPage() {
	as := d.trimList[d.trim]
	for {
		vpn := as.NextResident(d.trimFrom)
		if vpn < 0 || as.Resident <= as.MaxRSS {
			as.Memlock.Release(d.st.p)
			d.trim++
			d.state = dmnTrim
			return
		}
		d.trimFrom = vpn + 1
		if as.PTE(vpn).Busy {
			continue
		}
		d.trimVPN = vpn
		d.state = dmnTrimmed
		d.st.charge(d.cfg.PerPage)
		return
	}
}

// clock is the clock algorithm's step on one idle resident page of as,
// shared by the sweep and the maxrss trim: a valid page has its
// simulated reference bit cleared (a process still using it takes a
// soft fault to revalidate it); a page invalid for another reason (e.g.
// prefetched, not yet referenced) starts its clock instead of being
// stolen outright; a page still invalid since the last pass is stolen,
// and written back when dirty. trim is 1 for a maxrss trim, the steal
// event's B value. It reports whether the page was stolen. Caller holds
// Memlock.
//
//simvet:hot
func (d *Daemon) clock(as *vm.AS, vpn int, trim int64) bool {
	pte := as.PTE(vpn)
	if pte.Valid {
		as.ClearValid(vpn, vm.InvalidDaemon)
		d.Stats.Invalidations++
		d.Events.Emit(events.DaemonClear, d.name, as.OwnerName(), vpn, 0, 0)
		return false
	}
	if pte.Why != vm.InvalidDaemon {
		as.MarkClockCandidate(vpn)
		d.Stats.Invalidations++
		d.Events.Emit(events.DaemonClear, d.name, as.OwnerName(), vpn, 1, 0)
		return false
	}
	freed, dirty := as.TryReclaim(vpn, mem.FreedDaemon)
	if !freed {
		return false
	}
	d.Stats.Stolen++
	d.Stats.Trims += trim
	d.Events.Emit(events.DaemonSteal, d.name, as.OwnerName(), vpn, int64(d.free()), trim)
	if dirty {
		d.Stats.Writebacks++
		as.WriteBack(vpn)
	}
	return true
}
