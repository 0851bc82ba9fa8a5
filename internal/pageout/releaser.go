package pageout

import (
	"memhogs/internal/chaos"
	"memhogs/internal/events"
	"memhogs/internal/mem"
	"memhogs/internal/sim"
	"memhogs/internal/vm"
)

// ReleaserConfig parameterizes the releaser daemon.
type ReleaserConfig struct {
	PerPage sim.Time // CPU per page; smaller than the paging daemon's
	Batch   int      // pages per lock hold; smaller than the daemon's

	// FarMinPrio is the eq. 2 priority threshold for tier demotion:
	// released pages with priority >= FarMinPrio go to the far tier
	// when the run has one, below it (or when the tier is full) they
	// are freed to swap. Irrelevant without a far tier.
	FarMinPrio int
}

// ReleaserStats counts releaser activity.
type ReleaserStats struct {
	Requests       int64 // release requests dequeued
	PagesRequested int64
	Freed          int64
	SkippedRef     int64 // page referenced again since the request
	SkippedGone    int64 // page no longer resident
	Writebacks     int64
	Demoted        int64 // pages demoted to the far tier instead of freed
}

// releaseReq is one queued request from the PagingDirected PM. prios
// carries the eq. 2 reuse priority of each page (parallel to vpns);
// nil means no priority information, which demotes nothing unless
// FarMinPrio is zero.
type releaseReq struct {
	as    *vm.AS
	vpns  []int
	prios []int
}

// Releaser is the system releasing daemon: it "functions similarly to
// the paging daemon, but is specialized to reclaim only the pages
// indicated by the application" (§3.1.2). It holds address-space locks
// for much shorter periods and does less work per page.
type Releaser struct {
	sim  *sim.Sim
	cfg  ReleaserConfig
	exec vm.Exec

	node  int
	name  string // "releaserd" on node 0, "releaserd<k>" elsewhere
	queue []releaseReq
	wake  *sim.Waitq

	Stats ReleaserStats

	// Events is the flight recorder; nil disables recording.
	Events *events.Recorder

	// Chaos is the fault injector; nil injects nothing.
	Chaos *chaos.Injector
}

// NewNodeReleaser creates the releaser daemon serving one memory
// node's processes (each process enqueues to its home node's
// releaser). Start must be called before the simulation runs.
func NewNodeReleaser(s *sim.Sim, cfg ReleaserConfig, node int) *Releaser {
	return &Releaser{
		sim:  s,
		cfg:  cfg,
		node: node,
		name: daemonName("releaserd", node),
		wake: sim.NewWaitq("releaser.wake"),
	}
}

// Node returns the memory node this releaser serves.
func (r *Releaser) Node() int { return r.node }

// Start launches the releaser process. mk builds the releaser's
// execution context (CPU accounting) from its simulated process.
func (r *Releaser) Start(mk func(*sim.Proc) vm.Exec) {
	r.sim.Spawn(r.name, func(p *sim.Proc) {
		r.exec = mk(p)
		r.loop(p)
	})
}

// Enqueue adds a release request to the work queue. The PM has already
// cleared the shared-page bits and invalidated the mappings. prios
// (may be nil) carries each page's eq. 2 reuse priority, parallel to
// vpns, and steers tier demotion; see ReleaserConfig.FarMinPrio.
// The request keeps both slices until it is handled: the caller hands
// them over and must not touch them again.
func (r *Releaser) Enqueue(as *vm.AS, vpns []int, prios []int) {
	r.queue = append(r.queue, releaseReq{as: as, vpns: vpns, prios: prios})
	r.wake.WakeOne()
}

func (r *Releaser) loop(p *sim.Proc) {
	for {
		for len(r.queue) == 0 {
			r.wake.Wait(p)
		}
		req := r.queue[0]
		copy(r.queue, r.queue[1:])
		r.queue = r.queue[:len(r.queue)-1]
		r.Stats.Requests++
		r.Stats.PagesRequested += int64(len(req.vpns))
		// Chaos: a stalled releaser sits on the request while the
		// queue grows; the pages stay resident and the paging daemon
		// has to pick up the slack — degraded, never corrupted.
		if stall := r.Chaos.FireDelay(chaos.ReleaserStall, r.name); stall > 0 {
			p.Sleep(stall)
		}
		r.handle(p, req)
	}
}

// handle frees the requested pages in small batches, holding the
// address-space lock only across each batch. Pages whose reuse
// priority clears FarMinPrio are demoted to the far tier (contents
// kept, no writeback: the tier is byte-addressable); the rest — and
// everything when the tier is absent or full — are freed to swap.
func (r *Releaser) handle(p *sim.Proc, req releaseReq) {
	for off := 0; off < len(req.vpns); off += r.cfg.Batch {
		end := off + r.cfg.Batch
		if end > len(req.vpns) {
			end = len(req.vpns)
		}

		req.as.Memlock.Acquire(p)
		for i := off; i < end; i++ {
			vpn := req.vpns[i]
			r.exec.System(r.cfg.PerPage)
			pte := req.as.PTE(vpn)
			if !pte.Present || pte.Busy {
				r.Stats.SkippedGone++
				r.Events.Emit(events.ReleaserSkipGone, r.name, req.as.OwnerName(), vpn, 0, 0)
				continue
			}
			if pte.Valid {
				// "first checking the bit vector to make sure that
				// the pages have not been referenced again (either by
				// a prefetch or a real reference) since the time of
				// the request".
				r.Stats.SkippedRef++
				r.Events.Emit(events.ReleaserSkipRef, r.name, req.as.OwnerName(), vpn, 0, 0)
				continue
			}
			if req.as.Far != nil {
				prio := 0
				if req.prios != nil {
					prio = req.prios[i]
				}
				if prio >= r.cfg.FarMinPrio && !r.Chaos.Fire(chaos.FarDrop, r.name, vpn) {
					if demoted, dirty := req.as.TryDemote(vpn); demoted {
						r.Stats.Demoted++
						var d int64
						if dirty {
							d = 1
						}
						r.Events.Emit(events.TierDemote, r.name, req.as.OwnerName(), vpn, int64(prio), d)
						continue
					}
				}
			}
			freed, dirty := req.as.TryReclaim(vpn, mem.FreedRelease)
			if freed {
				r.Stats.Freed++
				var d int64
				if dirty {
					d = 1
				}
				r.Events.Emit(events.ReleaserFree, r.name, req.as.OwnerName(), vpn, 0, d)
				if dirty {
					r.Stats.Writebacks++
					req.as.WriteBack(vpn)
				}
			}
		}
		req.as.Memlock.Release(p)
	}
}
