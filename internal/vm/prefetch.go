package vm

import (
	"memhogs/internal/mem"
	"memhogs/internal/sim"
)

// PrefetchResult classifies what a prefetch request did.
type PrefetchResult int8

// Prefetch outcomes.
const (
	PrefetchAlreadyIn PrefetchResult = iota
	PrefetchDiscarded                // no free memory (§3.1.2)
	PrefetchRescued
	PrefetchRead
	PrefetchPromoted // promoted from the far tier at far-tier latency
)

// A Prefetcher brings pages into memory on behalf of the owning
// process, performing "actions similar to those that occur for a page
// fault, with two notable exceptions": a request is discarded
// immediately when no free memory exists, and the page is left
// *invalid* (no TLB entry) so the first real reference revalidates it
// (§3.1.2). Its thread is a prefetch worker, whose stall time is
// deliberately not charged to the application.
//
// A prefetch is a chain of steps around its waits (the memory lock, a
// CPU charge, a far-tier copy, a swap read), each a continuation bound
// once per Prefetcher, so a step process (a run-time-layer worker)
// runs it without a goroutine. The paging work between the waits is
// the demand-fault path's own halves. A Prefetcher serves one request
// at a time.
type Prefetcher struct {
	as   *AS
	x    Exec
	p    *sim.Proc
	done func() // runs when a request ends; Result is then valid

	vpn   int
	pte   *PTE
	frame *mem.Frame // the frame allocated for the page
	dirty bool       // a far page's slot dirty bit
	since sim.Time   // when the current wait began
	req   *ioReq     // the swap read in flight
	then  func()     // runs once the memory lock is held
	res   PrefetchResult

	// The steps, bound once: a method value passed as a continuation
	// would allocate at every step.
	lockedFn, handedFn, rescuedFn, farChargedFn, copiedFn,
	promoteLockedFn, readChargedFn, waitReadFn, readLockedFn func()
}

// NewPrefetcher returns a Prefetcher that runs requests on x's
// process and calls done as each ends.
func (as *AS) NewPrefetcher(x Exec, done func()) *Prefetcher {
	pf := &Prefetcher{as: as, x: x, p: x.Proc(), done: done}
	pf.lockedFn = pf.locked
	pf.handedFn = pf.handed
	pf.rescuedFn = pf.rescued
	pf.farChargedFn = pf.farCharged
	pf.copiedFn = pf.copied
	pf.promoteLockedFn = pf.promoteLocked
	pf.readChargedFn = pf.readCharged
	pf.waitReadFn = pf.waitRead
	pf.readLockedFn = pf.readLocked
	return pf
}

// Prefetch runs one prefetch of vpn to completion on x's process,
// which must have a body (a step process uses a Prefetcher).
func (as *AS) Prefetch(x Exec, vpn int) PrefetchResult {
	pf := as.NewPrefetcher(x, nop)
	pf.Start(vpn)
	pf.p.Await()
	return pf.Result()
}

// Result is the outcome of the request that ended last.
func (pf *Prefetcher) Result() PrefetchResult { return pf.res }

// Start begins a prefetch of vpn.
//
//simvet:hot
func (pf *Prefetcher) Start(vpn int) {
	pf.vpn = vpn
	pf.pte = &pf.as.ptes[vpn]
	if pf.pte.Busy || pf.pte.Present {
		pf.res = PrefetchAlreadyIn
		pf.done()
		return
	}
	pf.lock(pf.lockedFn)
}

// lock takes Memlock, accounting the wait as a lock stall, and then
// runs k.
//
//simvet:hot
func (pf *Prefetcher) lock(k func()) {
	pf.then = k
	pf.since = pf.p.Now()
	if pf.as.Memlock.AcquireThen(pf.p, pf.handedFn) {
		k()
	}
}

//simvet:hot
func (pf *Prefetcher) handed() {
	pf.x.Account(BucketStallLock, pf.as.Memlock.Handed(pf.p, pf.since))
	pf.then()
}

// locked is the request's body, entered with the memlock held. The
// paths that read or promote the page drop the lock while they wait
// and take it again before they end.
//
//simvet:hot
func (pf *Prefetcher) locked() {
	as, pte := pf.as, pf.pte
	if pte.Busy || pte.Present {
		pf.end(PrefetchAlreadyIn)
		return
	}
	// Rescue from the free list; cheap, no I/O.
	if pte.Frame != mem.NoFrame && !as.params.NoRescue {
		pf.x.SystemThen(as.params.RescueTime, pf.rescuedFn)
		return
	}
	pf.alloc()
}

// rescued ends a rescue. One that lost its frame during the charge
// falls through to the swap read: the lock is still held, so nothing
// else about the page can have changed.
//
//simvet:hot
func (pf *Prefetcher) rescued() {
	if pf.as.rescued(pf.pte, pf.vpn, viaAsync) {
		pf.end(PrefetchRescued)
		return
	}
	pf.alloc()
}

// alloc takes a free frame for the page and starts its promotion or
// swap read.
//
//simvet:hot
func (pf *Prefetcher) alloc() {
	as, pte := pf.as, pf.pte
	as.forgetFrame(pte)

	// "If there is no free memory, the request is discarded
	// immediately. This feature prevents memory from being stolen to
	// satisfy prefetches when the demand for memory is high."
	frame, ok := as.phys.TryAlloc(as, pf.vpn)
	if !ok {
		pf.end(PrefetchDiscarded)
		return
	}
	pf.frame = frame
	if pte.FarSlot != mem.NoFarSlot {
		// Demoted page: promote it out of the far tier instead of
		// reading the stale swap copy.
		pf.dirty = as.takeFromFar(pte, pf.vpn)
		pf.x.SystemThen(as.params.FarCPU, pf.farChargedFn)
		return
	}
	// Mark the page in flight before anything can block (the System
	// charge yields the CPU): the allocated frame must always be
	// traceable through the Busy bit.
	as.beginPageIn(pte, pf.vpn)
	pf.x.SystemThen(as.params.HardFaultCPU, pf.readChargedFn)
}

// farCharged drops the lock for the far-tier copy.
//
//simvet:hot
func (pf *Prefetcher) farCharged() {
	pf.as.Memlock.Release(pf.p)
	lat := pf.as.promoteLatency()
	pf.since = pf.p.Now()
	pf.p.SleepThen(lat, pf.copiedFn)
}

//simvet:hot
func (pf *Prefetcher) copied() {
	pf.x.Account(BucketStallIO, pf.p.Now()-pf.since)
	pf.lock(pf.promoteLockedFn)
}

//simvet:hot
func (pf *Prefetcher) promoteLocked() {
	pf.as.promoted(pf.vpn, pf.frame, pf.dirty, viaAsync)
	pf.end(PrefetchPromoted)
}

// readCharged starts the swap read with its readahead and drops the
// lock for it.
//
//simvet:hot
func (pf *Prefetcher) readCharged() {
	as := pf.as
	// "performs actions similar to those that occur for a page fault":
	// that includes swap-in clustering.
	for k := 1; k < as.params.Readahead; k++ {
		as.readahead(pf.vpn + k)
	}
	as.Memlock.Release(pf.p)
	pf.since = pf.p.Now()
	pf.req = as.submitRead(pf.vpn, pf.p)
	pf.waitRead()
}

// waitRead parks until the swap read is done.
//
//simvet:hot
func (pf *Prefetcher) waitRead() {
	if !pf.req.done {
		pf.p.ParkThen(pf.waitReadFn)
		return
	}
	pf.as.putReq(pf.req)
	pf.req = nil
	pf.as.pagedIn(pf.x, pf.vpn, viaPrefetch, pf.since)
	pf.lock(pf.readLockedFn)
}

//simvet:hot
func (pf *Prefetcher) readLocked() {
	pf.as.finishPageIn(pf.vpn, pf.frame, viaPrefetch)
	pf.end(PrefetchRead)
}

// end releases the memlock, reports the activity and ends the request
// with r. It releases straight-line rather than by defer: a worker
// unwound by sim.Close while parked waiting to re-take the lock does
// not own it.
//
//simvet:hot
func (pf *Prefetcher) end(r PrefetchResult) {
	pf.as.Memlock.Release(pf.p)
	pf.as.notifyActivity()
	pf.res = r
	pf.frame = nil
	pf.done()
}
