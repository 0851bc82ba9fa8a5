// Package rt implements the run-time layer of §3.3: it intercepts the
// compiler-inserted prefetch and release hints, filters the obviously
// useless ones against the shared-page bitmap and a one-request-behind
// per-tag duplicate check, issues prefetches from a pool of worker
// threads (the pthreads of the paper), and implements the two release
// policies the paper compares:
//
//   - Aggressive: every surviving release request is issued to the OS
//     immediately.
//   - Buffered: zero-priority requests are issued immediately; requests
//     with reuse are held in per-tag queues indexed by priority
//     (Figure 6(b)) and drained — lowest priority first, round-robin
//     within a priority level — only when the process nears the memory
//     limit published by the OS, 100 pages at a time.
package rt

import (
	"sort"

	"memhogs/internal/chaos"
	"memhogs/internal/compiler"
	"memhogs/internal/events"
	"memhogs/internal/kernel"
	"memhogs/internal/pageout"
	"memhogs/internal/pdpm"
	"memhogs/internal/sim"
)

// Mode selects the program version of the paper's evaluation.
type Mode int

// Run-time modes: the paper's O, P, R and B bars, plus the reactive
// (VINO-style) design point the paper argues against in §2.2.
const (
	ModeOriginal   Mode = iota // no hints at all
	ModePrefetch               // prefetch only
	ModeAggressive             // prefetch + aggressive releasing
	ModeBuffered               // prefetch + release buffering
	// ModeReactive never releases pro-actively: compiler hints feed
	// per-tag victim queues, and pages leave only when the paging
	// daemon asks ("the OS notifies the application when one or more
	// of its pages is about to be reclaimed", §2.2). The paper
	// predicts it "will not help isolate other applications from a
	// memory-intensive one"; BenchmarkReactiveVsProactive measures it.
	ModeReactive
)

func (m Mode) String() string {
	switch m {
	case ModeOriginal:
		return "O"
	case ModePrefetch:
		return "P"
	case ModeAggressive:
		return "R"
	case ModeReactive:
		return "V"
	default:
		return "B"
	}
}

// UsesPrefetch reports whether the mode runs the prefetch machinery.
func (m Mode) UsesPrefetch() bool { return m != ModeOriginal }

// UsesRelease reports whether the mode consumes release hints.
func (m Mode) UsesRelease() bool {
	return m == ModeAggressive || m == ModeBuffered || m == ModeReactive
}

// Config parameterizes the layer.
type Config struct {
	Mode         Mode
	Workers      int     // prefetch/release worker threads
	ReleaseBatch int     // pages drained per pressure event (paper: 100)
	Headroom     int     // pages below the limit at which draining starts
	PerCallNS    float64 // main-thread overhead per inserted call
	MaxQueue     int     // cap on buffered pages per tag
	MaxPfQueue   int     // cap on the prefetch work queue
}

// DefaultConfig returns the paper's run-time parameters.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:         mode,
		Workers:      8,
		ReleaseBatch: 100,
		Headroom:     0,
		PerCallNS:    80,
		MaxQueue:     1 << 17,
		MaxPfQueue:   1 << 14,
	}
}

// Stats counts run-time layer activity.
type Stats struct {
	PrefetchCalls    int64 // pages passed to the layer by compiled code
	PrefetchFiltered int64 // dropped by the bitmap check
	PrefetchIssued   int64 // handed to worker threads
	PrefetchDropped  int64 // work queue overflow

	ReleaseCalls       int64 // release hints seen
	ReleaseDupDropped  int64 // same page as previous request for the tag
	ReleaseNotResident int64 // bitmap said the page is not in memory
	ReleaseIssued      int64 // pages sent to the OS
	ReleaseBuffered    int64 // pages parked in priority queues
	ReleaseOverflow    int64 // buffered pages dropped by the queue cap

	PressureDrains int64 // times the layer decided to release memory
	Donated        int64 // pages handed to the daemon on request (reactive mode)
}

type workKind int8

const (
	workPf workKind = iota
	workRel
)

type workItem struct {
	kind  workKind
	page  int
	pages []int
	prios []int // eq. 2 reuse priority of each released page
}

// relQueue buffers releases for one tag (Figure 6(b)).
type relQueue struct {
	tag   int
	prio  int
	pages []int
}

// relHint is a release hint held back by an injected delay.
type relHint struct {
	tag  int
	prio int
	page int64
}

// maxLateHints bounds the held-back hint buffer; overflow means the
// hints are simply lost (a drop, the milder fault).
const maxLateHints = 4096

// Layer is the run-time layer for one out-of-core process. It
// implements compiler.Hints.
type Layer struct {
	cfg Config
	p   *kernel.Process
	pm  *pdpm.PM
	th  *kernel.Thread

	lastRel map[int]int64
	queues  map[int]*relQueue

	// ev is the system's flight recorder, captured at New; nil when
	// recording is off.
	ev *events.Recorder

	// chaos is the system's fault injector, captured at New; nil when
	// injection is off. lateHints holds hints an injected delay kept
	// from the layer; they arrive after the next undelayed hint.
	chaos     *chaos.Injector
	lateHints []relHint

	work     []workItem
	workWait *sim.Waitq

	userCarry float64
	Stats     Stats
}

var _ compiler.Hints = (*Layer)(nil)

// New creates the run-time layer for process p. pm may be nil only in
// ModeOriginal. Worker threads are spawned for all hinted modes.
func New(p *kernel.Process, pm *pdpm.PM, cfg Config) *Layer {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.ReleaseBatch <= 0 {
		cfg.ReleaseBatch = 100
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 1 << 17
	}
	if cfg.MaxPfQueue <= 0 {
		cfg.MaxPfQueue = 1 << 14
	}
	if cfg.Headroom < 0 {
		cfg.Headroom = 0
	}
	l := &Layer{
		cfg:      cfg,
		p:        p,
		pm:       pm,
		ev:       p.Sys.Events,
		chaos:    p.Sys.Chaos,
		lastRel:  map[int]int64{},
		queues:   map[int]*relQueue{},
		workWait: sim.NewWaitq(p.Name + ".rtwork"),
	}
	if cfg.Mode.UsesPrefetch() {
		if pm == nil {
			panic("rt: hinted mode requires a PagingDirected PM")
		}
		for i := 0; i < cfg.Workers; i++ {
			p.SpawnThread("pf", l.worker)
		}
	}
	if cfg.Mode == ModeReactive {
		// Donate to the process's home-node daemon: that is the clock
		// that sweeps (and would otherwise steal from) this space.
		p.HomeDaemon().RegisterDonor(pageout.Donor{AS: p.AS, Pick: l.donate})
	}
	return l
}

// donate implements the reactive victim provider: hand the daemon up
// to max buffered pages, lowest priority first.
func (l *Layer) donate(max int) []int {
	out, _ := l.drain(max)
	l.Stats.Donated += int64(len(out))
	return out
}

// drain takes up to max buffered pages, with their reuse priorities,
// from the lowest-priority queues first, round-robin by tag within a
// priority level.
func (l *Layer) drain(max int) (pages, prios []int) {
	// Group queues by priority, ascending.
	byPrio := map[int][]*relQueue{}
	var levels []int
	for _, q := range l.queues {
		if len(q.pages) == 0 {
			continue
		}
		if len(byPrio[q.prio]) == 0 {
			levels = append(levels, q.prio)
		}
		byPrio[q.prio] = append(byPrio[q.prio], q)
	}
	sort.Ints(levels)
	for _, prio := range levels {
		qs := byPrio[prio]
		sort.Slice(qs, func(i, j int) bool { return qs[i].tag < qs[j].tag })
		for len(pages) < max {
			progress := false
			for _, q := range qs {
				if len(q.pages) == 0 || len(pages) >= max {
					continue
				}
				pages = append(pages, q.pages[0])
				prios = append(prios, q.prio)
				copy(q.pages, q.pages[1:])
				q.pages = q.pages[:len(q.pages)-1]
				progress = true
			}
			if !progress {
				break
			}
		}
		if len(pages) >= max {
			break
		}
	}
	return pages, prios
}

// Bind attaches the main application thread; must be called from the
// thread's body before running compiled code.
func (l *Layer) Bind(th *kernel.Thread) { l.th = th }

// Touch implements compiler.Hints.
func (l *Layer) Touch(page int64, write bool) {
	l.th.Touch(int(page), write)
}

// Work implements compiler.Hints, carrying fractional nanoseconds so
// no computation is lost to truncation.
func (l *Layer) Work(ns float64) {
	ns += l.userCarry
	t := sim.Time(ns)
	l.userCarry = ns - float64(t)
	if t > 0 {
		l.th.User(t)
	}
}

// overhead charges the main thread for executing one inserted call.
func (l *Layer) overhead() {
	if l.cfg.PerCallNS > 0 {
		l.Work(l.cfg.PerCallNS)
	}
}

// Prefetch implements compiler.Hints: bitmap-filter each page and hand
// the misses to the worker threads.
func (l *Layer) Prefetch(tag int, pages []int64) {
	if !l.cfg.Mode.UsesPrefetch() {
		return
	}
	for _, pg := range pages {
		// Chaos: a dropped hint never reaches the layer; a duplicated
		// one arrives twice (the copy usually dies in the bitmap
		// filter or comes back PrefetchAlreadyIn).
		if l.chaos.Fire(chaos.PrefetchDrop, l.p.Name, int(pg)) {
			continue
		}
		l.prefetch1(pg)
		if l.chaos.Fire(chaos.PrefetchDup, l.p.Name, int(pg)) {
			l.prefetch1(pg)
		}
	}
}

// prefetch1 handles the arrival of one prefetch hint.
func (l *Layer) prefetch1(pg int64) {
	l.Stats.PrefetchCalls++
	l.overhead()
	p := int(pg)
	if p < 0 || p >= l.pm.AS().NumPages() {
		return
	}
	// "the bitmap is checked to see if a prefetch is really
	// needed."
	if l.pm.Shared().Test(p) {
		l.Stats.PrefetchFiltered++
		l.ev.Emit(events.RTPrefetchFilter, l.p.Name, "", p, 0, 0)
		return
	}
	if len(l.work) >= l.cfg.MaxPfQueue {
		l.Stats.PrefetchDropped++
		l.ev.Emit(events.RTPrefetchDrop, l.p.Name, "", p, 0, 0)
		return
	}
	l.Stats.PrefetchIssued++
	l.ev.Emit(events.RTPrefetchIssue, l.p.Name, "", p, 0, 0)
	l.work = append(l.work, workItem{kind: workPf, page: p})
	l.workWait.WakeOne()
}

// Release implements compiler.Hints: chaos hint perturbation, then the
// one-request-behind tag filter followed by either immediate issue or
// priority buffering.
func (l *Layer) Release(tag int, prio int, page int64) {
	if !l.cfg.Mode.UsesRelease() {
		return
	}
	// Chaos: hints can be lost before the layer sees them, held back
	// and delivered out of order after a later hint, or delivered
	// twice (the copy dies in the one-request-behind filter).
	if l.chaos.Fire(chaos.ReleaseDrop, l.p.Name, int(page)) {
		return
	}
	if l.chaos.Fire(chaos.ReleaseLate, l.p.Name, int(page)) {
		if len(l.lateHints) < maxLateHints {
			l.lateHints = append(l.lateHints, relHint{tag: tag, prio: prio, page: page})
		}
		return
	}
	l.release1(tag, prio, page)
	if l.chaos.Fire(chaos.ReleaseDup, l.p.Name, int(page)) {
		l.release1(tag, prio, page)
	}
	l.deliverLate()
}

// deliverLate delivers the hints an injected delay held back, in
// arrival order.
func (l *Layer) deliverLate() {
	for len(l.lateHints) > 0 {
		h := l.lateHints[0]
		l.lateHints = l.lateHints[1:]
		l.release1(h.tag, h.prio, h.page)
	}
}

// release1 handles the arrival of one release hint.
func (l *Layer) release1(tag int, prio int, page int64) {
	l.Stats.ReleaseCalls++
	l.overhead()

	// "The first release request for any tag is recorded until the
	// next request for that tag is issued. If a release request
	// identifies the same page as the previous request, it is dropped
	// since the page is obviously still in use."
	prev, ok := l.lastRel[tag]
	if !ok {
		l.lastRel[tag] = page
		return
	}
	if prev == page {
		l.Stats.ReleaseDupDropped++
		l.ev.Emit(events.RTReleaseDup, l.p.Name, "", int(page), 0, 0)
		return
	}
	l.lastRel[tag] = page

	p := int(prev)
	if p < 0 || p >= l.pm.AS().NumPages() {
		return
	}
	// "the requests inserted by the compiler are checked against the
	// bitvector to make sure that the pages are in memory."
	if !l.pm.Shared().Test(p) {
		l.Stats.ReleaseNotResident++
		l.ev.Emit(events.RTReleaseNotRes, l.p.Name, "", p, 0, 0)
		return
	}

	if l.cfg.Mode != ModeReactive && (prio == 0 || l.cfg.Mode == ModeAggressive) {
		// "Requests with no reuse (i.e. a priority of 0) are issued to
		// the OS after passing the simple checks."
		l.issueRelease([]int{p}, []int{prio})
		return
	}

	q := l.queues[tag]
	if q == nil {
		q = &relQueue{tag: tag, prio: prio}
		l.queues[tag] = q
	}
	if len(q.pages) >= l.cfg.MaxQueue {
		l.Stats.ReleaseOverflow++
		l.ev.Emit(events.RTReleaseOverflow, l.p.Name, "", q.pages[0], 0, 0)
		copy(q.pages, q.pages[1:])
		q.pages = q.pages[:len(q.pages)-1]
	}
	q.pages = append(q.pages, p)
	l.Stats.ReleaseBuffered++
	l.ev.Emit(events.RTReleaseBuffer, l.p.Name, "", p, int64(prio), 0)
	if l.cfg.Mode != ModeReactive {
		// Reactive mode never releases pro-actively; pages leave only
		// when the daemon asks through the donor callback.
		l.checkPressure()
	}
}

// checkPressure reads the (possibly stale) shared page and, when usage
// nears the limit, drains ~ReleaseBatch pages from the lowest-priority
// queues, round-robin within a priority level.
func (l *Layer) checkPressure() {
	sp := l.pm.Shared()
	if sp.Current < sp.Limit-l.cfg.Headroom {
		return
	}
	l.checkPressureForced()
}

// checkPressureForced drains one batch unconditionally (tests and
// Flush-like paths).
func (l *Layer) checkPressureForced() {
	l.Stats.PressureDrains++
	if l.ev != nil {
		sp := l.pm.Shared()
		l.ev.Emit(events.RTPressureDrain, l.p.Name, "", -1, int64(sp.Current), int64(sp.Limit))
	}
	if pages, prios := l.drain(l.cfg.ReleaseBatch); len(pages) > 0 {
		l.issueRelease(pages, prios)
	}
}

// issueRelease hands pages (with their parallel reuse priorities) to a
// worker thread for the actual system call ("The same set of pthreads
// are also used to actually issue the release requests to the OS").
func (l *Layer) issueRelease(pages, prios []int) {
	l.Stats.ReleaseIssued += int64(len(pages))
	l.ev.Emit(events.RTReleaseIssue, l.p.Name, "", -1, int64(len(pages)), 0)
	l.work = append(l.work, workItem{kind: workRel, pages: pages, prios: prios})
	l.workWait.WakeOne()
}

// BufferedPages returns the number of release requests currently held
// in the priority queues (for tests and diagnostics).
func (l *Layer) BufferedPages() int {
	n := 0
	for _, q := range l.queues {
		n += len(q.pages)
	}
	return n
}

// Flush drains any remaining buffered releases unconditionally (used
// at the end of a program run in tests; the paper's layer never needs
// this because programs exit).
func (l *Layer) Flush() {
	// Deliver hints chaos held back so "late" stays late, not lost.
	l.deliverLate()
	if pages, prios := l.drain(l.BufferedPages()); len(pages) > 0 {
		l.issueRelease(pages, prios)
	}
}

// worker is the body of one prefetch/release thread.
func (l *Layer) worker(t *kernel.Thread) {
	for {
		for len(l.work) == 0 {
			l.workWait.Wait(t.Proc())
		}
		item := l.work[0]
		copy(l.work, l.work[1:])
		l.work = l.work[:len(l.work)-1]
		switch item.kind {
		case workPf:
			l.pm.Prefetch(t.Exec(), item.page)
		case workRel:
			l.pm.Release(t.Exec(), item.pages, item.prios)
		}
	}
}
