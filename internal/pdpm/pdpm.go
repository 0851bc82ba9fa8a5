// Package pdpm implements the "PagingDirected" policy module the paper
// adds to IRIX 6.5 (§3.1): user-level prefetch and release operations
// on a process's own address space, plus a read-only shared page
// through which the OS publishes a residency bitmap, the process's
// current memory usage, and the upper limit on pages the process
// should use:
//
//	upper limit = min(maxrss, current + tot_freemem - min_freemem)   (1)
//
// The shared page's usage and limit words are refreshed only when the
// process experiences memory-system activity (a fault, a prefetch or
// release request, or a steal), so the run-time layer can observe
// stale values — exactly as in the paper.
package pdpm

import (
	"memhogs/internal/chaos"
	"memhogs/internal/events"
	"memhogs/internal/mem"
	"memhogs/internal/pageout"
	"memhogs/internal/sim"
	"memhogs/internal/vm"
)

// Config parameterizes the policy module.
type Config struct {
	MinFree      int      // system min_freemem, in pages
	MaxRSS       int      // process maxrss, in pages
	PrefetchCall sim.Time // system-call CPU cost of a prefetch request
	ReleaseCall  sim.Time // system-call CPU cost of a release request
	// ImmediateUpdates makes the shared page update eagerly on every
	// change instead of only on memory activity. The paper rejects
	// this as too expensive; it is kept for TestAblations.
	ImmediateUpdates bool
	// NotifyThreshold, when > 0, refreshes the shared page whenever
	// system free memory has drifted by more than this many pages
	// since the last refresh — the alternative §3.1.1 mentions but
	// does not explore. The kernel feeds free-memory changes through
	// FreeMemChanged.
	NotifyThreshold int
}

// Stats counts PM-level activity.
type Stats struct {
	PrefetchRequests  int64
	PrefetchAlreadyIn int64
	PrefetchDiscarded int64 // no free memory
	PrefetchRescued   int64
	PrefetchRead      int64
	PrefetchPromoted  int64 // promoted from the far tier
	ReleaseRequests   int64
	ReleasePages      int64
	SharedRefreshes   int64
}

// SharedPage is the 16 KB page mapped read-only into the application.
// The first two words are the current number of resident pages and the
// recommended upper limit; the rest is a bitmap indexed by virtual
// page number.
type SharedPage struct {
	Current int
	Limit   int
	bits    []uint64
}

// Test reports bit vpn.
func (sp *SharedPage) Test(vpn int) bool {
	return sp.bits[vpn>>6]&(1<<(uint(vpn)&63)) != 0
}

func (sp *SharedPage) set(vpn int)   { sp.bits[vpn>>6] |= 1 << (uint(vpn) & 63) }
func (sp *SharedPage) clear(vpn int) { sp.bits[vpn>>6] &^= 1 << (uint(vpn) & 63) }

// PopCount returns the number of set bits (for tests).
func (sp *SharedPage) PopCount() int {
	n := 0
	for _, w := range sp.bits {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// PM is a PagingDirected policy module attached to (the whole of) one
// address space.
type PM struct {
	as       *vm.AS
	phys     *mem.Phys
	releaser *pageout.Releaser
	cfg      Config

	shared         SharedPage
	lastNotifyFree int
	Stats          Stats

	// Chaos is the fault injector; nil injects nothing.
	Chaos *chaos.Injector
}

// Attach creates a PM connected to as and installs it as the address
// space's residency watcher. Following §3.1.1, attaching clears the
// bitmap bits for the covered range (nothing is resident yet).
func Attach(as *vm.AS, phys *mem.Phys, releaser *pageout.Releaser, cfg Config) *PM {
	if cfg.MaxRSS <= 0 {
		cfg.MaxRSS = phys.NumFrames() + 1
	}
	pm := &PM{
		as:       as,
		phys:     phys,
		releaser: releaser,
		cfg:      cfg,
	}
	pm.shared.bits = make([]uint64, (as.NumPages()+63)/64)
	for vpn := 0; vpn < as.NumPages(); vpn++ {
		if as.IsResident(vpn) {
			pm.shared.set(vpn)
		}
	}
	pm.refresh()
	as.SetWatcher(pm)
	return pm
}

// Shared returns the shared page for direct (no-syscall) reads by the
// run-time layer.
func (pm *PM) Shared() *SharedPage { return &pm.shared }

// AS returns the attached address space.
func (pm *PM) AS() *vm.AS { return pm.as }

// FreeMemChanged implements the threshold-notification variant: the
// OS tells the PM free memory moved; if it drifted beyond the
// configured threshold since the last refresh, the shared page is
// updated even without memory activity from the owning process.
func (pm *PM) FreeMemChanged(free int) {
	if pm.cfg.NotifyThreshold <= 0 {
		return
	}
	d := free - pm.lastNotifyFree
	if d < 0 {
		d = -d
	}
	if d > pm.cfg.NotifyThreshold {
		pm.refresh()
	}
}

// refresh recomputes the usage and limit words, equation (1).
func (pm *PM) refresh() {
	// Chaos: a stale refresh leaves the previous usage and limit words
	// in place, so the run-time layer plans against lies until the next
	// memory activity. Only advice goes stale — never kernel state.
	if pm.Chaos.Fire(chaos.StaleShared, pm.as.OwnerName(), -1) {
		return
	}
	pm.Stats.SharedRefreshes++
	pm.lastNotifyFree = pm.phys.FreeCount()
	pm.shared.Current = pm.as.Resident
	limit := pm.as.Resident + pm.phys.FreeCount() - pm.cfg.MinFree
	if pm.cfg.MaxRSS < limit {
		limit = pm.cfg.MaxRSS
	}
	if limit < 0 {
		limit = 0
	}
	pm.shared.Limit = limit
	// The recorder lives on the AS so the PM sees it however it was
	// installed (before or after Attach).
	pm.as.Events.Emit(events.PMRefresh, pm.as.OwnerName(), "", -1,
		int64(pm.shared.Current), int64(pm.shared.Limit))
}

// PageIn implements vm.Watcher.
func (pm *PM) PageIn(vpn int) {
	// Chaos: a lost bitmap update makes a resident page look absent —
	// the layer wastes a prefetch that comes back AlreadyIn.
	if pm.Chaos.Fire(chaos.StaleShared, pm.as.OwnerName(), vpn) {
		return
	}
	pm.shared.set(vpn)
	if pm.cfg.ImmediateUpdates {
		pm.refresh()
	}
}

// PageOut implements vm.Watcher.
func (pm *PM) PageOut(vpn int) {
	// Chaos: a lost bitmap update makes an evicted page look resident —
	// the layer filters its prefetch and pays a hard fault instead.
	if pm.Chaos.Fire(chaos.StaleShared, pm.as.OwnerName(), vpn) {
		return
	}
	pm.shared.clear(vpn)
	if pm.cfg.ImmediateUpdates {
		pm.refresh()
	}
}

// Revalidate implements vm.Watcher: a reference after a pending
// release request makes the page visible as "in memory" again, which
// is what the releaser's bit-vector check observes.
func (pm *PM) Revalidate(vpn int) {
	pm.shared.set(vpn)
}

// Activity implements vm.Watcher: memory-system activity refreshes the
// usage and limit words.
func (pm *PM) Activity() { pm.refresh() }

// A Worker issues a PM's prefetch and release requests for one thread
// of the run-time layer: each request is a chain of steps bound once
// per Worker, so a step process runs it without a goroutine, and done
// runs as each request ends. A Worker serves one request at a time.
type Worker struct {
	pm   *PM
	x    vm.Exec
	pf   *vm.Prefetcher
	done func()

	vpn, prio   int
	one         bool // the release in service is of the one page vpn
	vpns, prios []int

	// The steps, bound once.
	prefetchFn, releaseFn func()
}

// NewWorker returns a Worker that runs requests on x's process.
func (pm *PM) NewWorker(x vm.Exec, done func()) *Worker {
	w := &Worker{pm: pm, x: x, done: done}
	w.pf = pm.as.NewPrefetcher(x, w.prefetched)
	w.prefetchFn, w.releaseFn = w.prefetch, w.release
	return w
}

// Prefetch issues a prefetch request for vpn: the system call's CPU,
// then the page-in (vm.Prefetcher).
//
//simvet:hot
func (w *Worker) Prefetch(vpn int) {
	w.pm.Stats.PrefetchRequests++
	w.vpn = vpn
	w.x.SystemThen(w.pm.cfg.PrefetchCall, w.prefetchFn)
}

//simvet:hot
func (w *Worker) prefetch() { w.pf.Start(w.vpn) }

//simvet:hot
func (w *Worker) prefetched() {
	pm, res := w.pm, w.pf.Result()
	pm.as.Events.Emit(events.PMPrefetchCall, pm.as.OwnerName(), "", w.vpn, int64(res), 0)
	switch res {
	case vm.PrefetchAlreadyIn:
		pm.Stats.PrefetchAlreadyIn++
	case vm.PrefetchDiscarded:
		pm.Stats.PrefetchDiscarded++
	case vm.PrefetchRescued:
		pm.Stats.PrefetchRescued++
	case vm.PrefetchRead:
		pm.Stats.PrefetchRead++
	case vm.PrefetchPromoted:
		pm.Stats.PrefetchPromoted++
	}
	pm.refresh()
	w.done()
}

// Release issues a release request for the given pages: the PM clears
// their shared-page bits, invalidates their mappings so a later
// reference is observable, and queues the request to the releaser
// daemon (§3.1.2). prios (may be nil) carries the pages' eq. 2 reuse
// priorities, parallel to vpns, which the releaser uses to pick a
// demotion target when the machine has a far tier. The request takes
// ownership of both slices: they go to the releaser's queue as they
// are, so the caller must not touch them again.
//
//simvet:hot
func (w *Worker) Release(vpns []int, prios []int) {
	w.vpns, w.prios = vpns, prios
	w.request(len(vpns))
}

// ReleasePage is Release for the one page vpn, of reuse priority prio.
// It hands over no slice.
//
//simvet:hot
func (w *Worker) ReleasePage(vpn, prio int) {
	w.vpn, w.prio, w.one = vpn, prio, true
	w.request(1)
}

// request issues the release system call for n pages.
//
//simvet:hot
func (w *Worker) request(n int) {
	pm := w.pm
	pm.Stats.ReleaseRequests++
	pm.Stats.ReleasePages += int64(n)
	pm.as.Events.Emit(events.PMReleaseCall, pm.as.OwnerName(), "", -1, int64(n), 0)
	w.x.SystemThen(pm.cfg.ReleaseCall, w.releaseFn)
}

//simvet:hot
func (w *Worker) release() {
	pm := w.pm
	if w.one {
		w.one = false
		pm.shared.clear(w.vpn)
		pm.as.InvalidateForRelease(w.vpn)
		pm.releaser.EnqueuePage(pm.as, w.vpn, w.prio)
	} else {
		vpns, prios := w.vpns, w.prios
		w.vpns, w.prios = nil, nil
		for _, vpn := range vpns {
			pm.shared.clear(vpn)
			pm.as.InvalidateForRelease(vpn)
		}
		pm.releaser.Enqueue(pm.as, vpns, prios)
	}
	pm.refresh()
	w.done()
}
