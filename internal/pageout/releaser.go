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

// releaseReq is one queued request from the PagingDirected PM: the
// pages vpns with prios, the eq. 2 reuse priority of each page
// (parallel to vpns; nil means no priority information, which demotes
// nothing unless FarMinPrio is zero), or, for a one-page request, the
// page vpn with priority prio.
type releaseReq struct {
	as        *vm.AS
	vpns      []int
	prios     []int
	one       bool
	vpn, prio int
}

// len returns the number of pages the request names.
func (q *releaseReq) len() int {
	if q.one {
		return 1
	}
	return len(q.vpns)
}

// page returns the i-th page of the request and its priority.
func (q *releaseReq) page(i int) (vpn, prio int) {
	if q.one {
		return q.vpn, q.prio
	}
	if q.prios != nil {
		prio = q.prios[i]
	}
	return q.vpns[i], prio
}

// The releaser's states: where its loop goes on when it runs next.
const (
	relIdle     = iota // take the next request, or wait for one
	relBatch           // lock the next batch of the request, or end it
	relPage            // charge for the next page of the batch, or end it
	relPageDone        // the page's charge is done: free or demote it
)

// Releaser is the system releasing daemon: it "functions similarly to
// the paging daemon, but is specialized to reclaim only the pages
// indicated by the application" (§3.1.2). It holds address-space locks
// for much shorter periods and does less work per page. It runs as a
// step process (see stepper).
type Releaser struct {
	cfg ReleaserConfig
	st  stepper

	node  int
	name  string // "releaserd" on node 0, "releaserd<k>" elsewhere
	queue sim.FIFO[releaseReq]
	wake  *sim.Waitq

	// The loop's position: its state, the request in service, the
	// bounds of the batch in progress and its next page.
	state    int
	req      releaseReq
	off, end int
	i        int

	Stats ReleaserStats

	// Events is the flight recorder; nil disables recording.
	Events *events.Recorder

	// Chaos is the fault injector; nil injects nothing.
	Chaos *chaos.Injector
}

// NewNodeReleaser creates the releaser daemon serving one memory
// node's processes (each process enqueues to its home node's
// releaser). Start must be called before the simulation runs.
func NewNodeReleaser(cfg ReleaserConfig, node int) *Releaser {
	return &Releaser{
		cfg:  cfg,
		node: node,
		name: daemonName("releaserd", node),
		wake: sim.NewWaitq("releaser.wake"),
	}
}

// Node returns the memory node this releaser serves.
func (r *Releaser) Node() int { return r.node }

// Start launches the releaser's step process through spawn, which
// also supplies its CPU accounting.
func (r *Releaser) Start(spawn Spawn) { r.st.start(spawn, r.name, r.step) }

// Enqueue adds a release request to the work queue. The PM has already
// cleared the shared-page bits and invalidated the mappings. prios
// (may be nil) carries each page's eq. 2 reuse priority, parallel to
// vpns, and steers tier demotion; see ReleaserConfig.FarMinPrio.
// The request keeps both slices until it is handled: the caller hands
// them over and must not touch them again.
//
//simvet:hot
func (r *Releaser) Enqueue(as *vm.AS, vpns []int, prios []int) {
	r.queue.Push(releaseReq{as: as, vpns: vpns, prios: prios})
	r.wake.WakeOne()
}

// EnqueuePage is Enqueue for the one page vpn, of reuse priority
// prio. It hands over no slice.
//
//simvet:hot
func (r *Releaser) EnqueuePage(as *vm.AS, vpn, prio int) {
	r.queue.Push(releaseReq{as: as, one: true, vpn: vpn, prio: prio})
	r.wake.WakeOne()
}

// step is one transition of the releaser's loop: take requests in
// FIFO order and free each one's pages in small batches, holding the
// address-space lock only across each batch. Pages whose reuse
// priority clears FarMinPrio are demoted to the far tier (contents
// kept, no writeback: the tier is byte-addressable); the rest — and
// everything when the tier is absent or full — are freed to swap.
//
//simvet:hot
func (r *Releaser) step() {
	switch r.state {
	case relIdle:
		if r.queue.Len() == 0 {
			r.st.wait(r.wake)
			return
		}
		r.req = r.queue.Pop()
		r.Stats.Requests++
		r.Stats.PagesRequested += int64(r.req.len())
		r.off, r.state = 0, relBatch
		// Chaos: a stalled releaser sits on the request while the
		// queue grows; the pages stay resident and the paging daemon
		// has to pick up the slack — degraded, never corrupted.
		if stall := r.Chaos.FireDelay(chaos.ReleaserStall, r.name); stall > 0 {
			r.st.sleep(stall)
		}
	case relBatch:
		n := r.req.len()
		if r.off >= n {
			r.req = releaseReq{}
			r.state = relIdle
			return
		}
		r.end = min(r.off+r.cfg.Batch, n)
		r.i, r.state = r.off, relPage
		r.st.acquire(r.req.as.Memlock)
	case relPage:
		if r.i >= r.end {
			r.req.as.Memlock.Release(r.st.p)
			r.off += r.cfg.Batch
			r.state = relBatch
			return
		}
		r.state = relPageDone
		r.st.charge(r.cfg.PerPage)
	case relPageDone:
		vpn, prio := r.req.page(r.i)
		r.i++
		r.state = relPage
		r.releasePage(r.req.as, vpn, prio)
	}
}

// releasePage frees or demotes one requested page, unless it is gone
// or was referenced again since the request. Caller holds Memlock.
//
//simvet:hot
func (r *Releaser) releasePage(as *vm.AS, vpn, prio int) {
	pte := as.PTE(vpn)
	if !pte.Present || pte.Busy {
		r.Stats.SkippedGone++
		r.Events.Emit(events.ReleaserSkipGone, r.name, as.OwnerName(), vpn, 0, 0)
		return
	}
	if pte.Valid {
		// "first checking the bit vector to make sure that the pages
		// have not been referenced again (either by a prefetch or a
		// real reference) since the time of the request".
		r.Stats.SkippedRef++
		r.Events.Emit(events.ReleaserSkipRef, r.name, as.OwnerName(), vpn, 0, 0)
		return
	}
	if as.Far != nil && prio >= r.cfg.FarMinPrio && !r.Chaos.Fire(chaos.FarDrop, r.name, vpn) {
		if demoted, dirty := as.TryDemote(vpn); demoted {
			r.Stats.Demoted++
			var d int64
			if dirty {
				d = 1
			}
			r.Events.Emit(events.TierDemote, r.name, as.OwnerName(), vpn, int64(prio), d)
			return
		}
	}
	freed, dirty := as.TryReclaim(vpn, mem.FreedRelease)
	if freed {
		r.Stats.Freed++
		var d int64
		if dirty {
			d = 1
		}
		r.Events.Emit(events.ReleaserFree, r.name, as.OwnerName(), vpn, 0, d)
		if dirty {
			r.Stats.Writebacks++
			as.WriteBack(vpn)
		}
	}
}
