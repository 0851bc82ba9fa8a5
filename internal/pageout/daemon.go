// Package pageout implements the two system daemons of the model:
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

// Daemon is the paging daemon.
type Daemon struct {
	sim  *sim.Sim
	phys *mem.Phys
	cfg  DaemonConfig
	exec vm.Exec

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
// with the daemon's execution context before the simulation runs.
func NewNodeDaemon(s *sim.Sim, phys *mem.Phys, cfg DaemonConfig, node int) *Daemon {
	base, limit := phys.NodeRange(node)
	d := &Daemon{
		sim:     s,
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

// Start launches the daemon process. mk builds the daemon's execution
// context (CPU accounting) from its simulated process.
func (d *Daemon) Start(mk func(*sim.Proc) vm.Exec) {
	d.sim.Spawn(d.name, func(p *sim.Proc) {
		d.exec = mk(p)
		d.loop(p)
	})
}

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

func (d *Daemon) loop(p *sim.Proc) {
	for {
		for !d.needed() {
			d.kicked = false
			d.wake.Wait(p)
			if d.needed() {
				break
			}
		}
		d.kicked = false
		d.Stats.Activations++
		d.Events.Emit(events.DaemonWake, d.name, "", -1, int64(d.free()), 0)
		// Chaos: a steal storm inflates this activation's target, so
		// the clock reclaims far past desfree (over-eager vhand).
		d.stormExtra = d.Chaos.FireExtra(chaos.DaemonStorm, d.name)
		d.scan(p)
		d.stormExtra = 0
	}
}

// target is the free-page goal of the current activation: desfree,
// plus any injected storm surplus.
func (d *Daemon) target() int { return d.cfg.TargetFree + d.stormExtra }

// scan steals pages until free memory reaches the target or the clock
// has swept all frames twice (one invalidate pass plus one steal
// pass). Reactive donors are consulted first: pages they volunteer
// spare the clock (and everyone else's pages).
func (d *Daemon) scan(p *sim.Proc) {
	d.askDonors(p)
	limit := 2 * (d.limit - d.base)
	scanned := 0
	for d.free() < d.target() && scanned < limit {
		n := d.scanBatch(p)
		scanned += n
		if n == 0 {
			break
		}
	}
	d.trimMaxRSS(p)
}

// askDonors implements the reactive §2.2 scheme: collect volunteered
// victims from cooperating processes and reclaim exactly those.
func (d *Daemon) askDonors(p *sim.Proc) {
	for _, dn := range d.donors {
		need := d.target() - d.free()
		if need <= 0 {
			return
		}
		vpns := dn.Pick(need)
		if len(vpns) == 0 {
			continue
		}
		dn.AS.Memlock.Acquire(p)
		for _, vpn := range vpns {
			d.exec.System(d.cfg.PerPage)
			dn.AS.InvalidateForRelease(vpn)
			freed, dirty := dn.AS.TryReclaim(vpn, mem.FreedRelease)
			if !freed {
				continue
			}
			d.Stats.Donated++
			d.Events.Emit(events.DaemonDonated, d.name, dn.AS.OwnerName(), vpn, int64(d.free()), 0)
			if dirty {
				d.Stats.Writebacks++
				dn.AS.WriteBack(vpn)
			}
		}
		dn.AS.Memlock.Release(p)
	}
}

// scanBatch advances the clock hand over up to Batch frames of a
// single address space, holding that space's memory lock for the whole
// batch (the long lock holds that inflate fault service times in the
// paper). Runs of free or offline frames are skipped word-at-a-time
// over the allocated bitmap; they still charge the batch budget one
// position per frame, so a batch covers the same span the per-frame
// walk did. The hand only ever moves forward, and only past positions
// this batch is done with: a batch boundary (a frame owned by another
// address space) leaves it parked on the boundary frame instead of
// stepping it back with modular arithmetic, so a concurrent hot-unplug
// can never make the hand retreat over (and re-visit or skip) frames.
//
//simvet:hot
func (d *Daemon) scanBatch(p *sim.Proc) int {
	rs := d.limit - d.base
	// Find the first frame owned by an address space, starting at the
	// hand. No virtual time passes in this search, so finding nothing
	// is a stable outcome for the whole sweep: report no progress and
	// let the sweep end.
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
		return 0 // nothing scannable anywhere
	}

	as.Memlock.Acquire(p)
	processed := 0
	for processed < d.cfg.Batch {
		i := d.hand
		if !d.phys.FrameAllocated(i) {
			// A run of free or offline frames: skip straight to the
			// next allocated frame (or spend the rest of the budget).
			gap := d.cfg.Batch - processed
			if next := d.phys.NextAllocatedIn(i, d.base, d.limit); next >= 0 {
				if dist := (next - i + rs) % rs; dist > 0 && dist < gap {
					gap = dist
				}
			}
			d.reportSkips(i, gap)
			d.hand = d.base + (i+gap-d.base)%rs
			processed += gap
			continue
		}
		f := d.phys.Frame(mem.FrameID(i))
		if f.Owner == nil {
			// Allocated but anonymous; pass over it.
			d.reportSkips(i, 1)
			d.hand = d.base + (i+1-d.base)%rs
			processed++
			continue
		}
		fas, ok := f.Owner.(*vm.AS)
		if !ok || fas != as {
			// Crossed into another address space; end the batch with
			// the hand parked on the boundary frame so the next batch
			// starts here under that space's lock.
			break
		}
		d.hand = d.base + (i+1-d.base)%rs
		processed++
		if d.testVisit != nil {
			d.testVisit(i, true)
		}
		d.Stats.Scanned++
		d.exec.System(d.cfg.PerPage)
		vpn := f.VPN
		if as.PTE(vpn).Busy {
			continue
		}
		if d.clock(as, vpn, 0) && d.free() >= d.target() {
			break
		}
	}
	as.Memlock.Release(p)
	if processed == 0 {
		return 1
	}
	return processed
}

// trimMaxRSS enforces per-process resident-set limits (IRIX maxrss):
// processes above their limit are trimmed with the same
// invalidate-then-steal discipline, scoped to one address space.
func (d *Daemon) trimMaxRSS(p *sim.Proc) {
	for _, as := range d.ases {
		if as.Resident <= as.MaxRSS {
			continue
		}
		d.Stats.Activations++
		d.Events.Emit(events.DaemonWake, d.name, as.OwnerName(), -1, int64(d.free()), 1)
		as.Memlock.Acquire(p)
		// Walk resident pages word-at-a-time over the residency bitmap;
		// everything it skips is exactly what the per-PTE walk skipped
		// (the bitmap mirrors PTE.Present).
		for vpn := as.NextResident(0); vpn >= 0 && as.Resident > as.MaxRSS; vpn = as.NextResident(vpn + 1) {
			if as.PTE(vpn).Busy {
				continue
			}
			d.exec.System(d.cfg.PerPage)
			d.Stats.Scanned++
			d.clock(as, vpn, 1)
		}
		as.Memlock.Release(p)
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
