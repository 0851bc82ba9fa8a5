// Package chaos is a deterministic, seed-driven fault-injection
// engine for the simulated memory system. A fault plan is pure data —
// a seed plus a list of per-site probabilities and schedules — and the
// injector it configures is threaded through the kernel, pageout, rt,
// pdpm and disk layers at injection points co-located with the
// flight-recorder Emit calls, so every injected fault is visible in
// the event stream and every run is replayable byte-for-byte under
// the sim clock.
//
// Determinism follows the repo-wide rule that every stochastic
// component owns its own sim.Rand stream: the injector keeps one
// stream per site, derived from the plan seed, so a site that never
// fires never draws, and a plan whose probabilities are all zero
// perturbs nothing — the run is byte-identical to one with no
// injector at all (the metamorphic property chaostest checks).
//
// Like the flight recorder, a nil *Injector is valid everywhere and
// injects nothing at the cost of one branch.
package chaos

import (
	"memhogs/internal/events"
	"memhogs/internal/mem"
	"memhogs/internal/sim"
)

// Site identifies one injection point class in the stack.
type Site uint8

// Injection sites. The order is stable (plan strings and event
// payloads reference it by name, not index).
const (
	// ReleaserStall delays the releaser daemon before it handles a
	// dequeued request (magnitude: stall duration).
	ReleaserStall Site = iota
	// DaemonStorm inflates the paging daemon's steal target for one
	// activation (magnitude: extra pages beyond desfree).
	DaemonStorm
	// ReleaseDrop loses a compiler release hint before the run-time
	// layer sees it.
	ReleaseDrop
	// ReleaseDup delivers a release hint twice (exercises the
	// one-request-behind duplicate filter).
	ReleaseDup
	// ReleaseLate holds a release hint back and re-delivers it after a
	// later hint (out-of-order arrival).
	ReleaseLate
	// PrefetchDrop loses a compiler prefetch hint.
	PrefetchDrop
	// PrefetchDup delivers a prefetch hint twice.
	PrefetchDup
	// StaleShared makes the shared page lie: a refresh or bitmap
	// update is skipped, so the run-time layer observes stale
	// residency and limit data.
	StaleShared
	// DiskSlow adds a latency spike before a disk request is
	// positioned (magnitude: extra delay).
	DiskSlow
	// DiskError fails a disk read transfer; the disk retries with
	// exponential backoff (magnitude: base backoff).
	DiskError
	// MemShrink hot-unplugs physical frames at a scheduled time
	// (magnitude: pages to take offline).
	MemShrink
	// MemGrow brings hot-unplugged frames back online (magnitude:
	// pages).
	MemGrow
	// FarSlow adds a latency spike to a far-tier promotion (magnitude:
	// extra delay).
	FarSlow
	// FarDrop loses a demotion decision: the released page goes to swap
	// even though its priority earned a far-tier slot.
	FarDrop
	// FarShrink hot-unplugs free far-tier slots at a scheduled time
	// (magnitude: slots to take offline).
	FarShrink
	// FarGrow brings hot-unplugged far-tier slots back online
	// (magnitude: slots).
	FarGrow
	NumSites
)

var siteNames = [NumSites]string{
	ReleaserStall: "releaser-stall",
	DaemonStorm:   "daemon-storm",
	ReleaseDrop:   "release-drop",
	ReleaseDup:    "release-dup",
	ReleaseLate:   "release-late",
	PrefetchDrop:  "prefetch-drop",
	PrefetchDup:   "prefetch-dup",
	StaleShared:   "stale-shared",
	DiskSlow:      "disk-slow",
	DiskError:     "disk-error",
	MemShrink:     "mem-shrink",
	MemGrow:       "mem-grow",
	FarSlow:       "far-slow",
	FarDrop:       "far-drop",
	FarShrink:     "far-shrink",
	FarGrow:       "far-grow",
}

// durationSite marks sites whose magnitude is a duration (plan
// strings format those with a unit suffix).
var durationSite = [NumSites]bool{
	ReleaserStall: true,
	DiskSlow:      true,
	DiskError:     true,
	FarSlow:       true,
}

// timedSite marks sites that fire at a scheduled time rather than
// probabilistically at an injection point.
var timedSite = [NumSites]bool{
	MemShrink: true,
	MemGrow:   true,
	FarShrink: true,
	FarGrow:   true,
}

// defaultMag is the magnitude used when a fault leaves Mag zero.
var defaultMag = [NumSites]int64{
	ReleaserStall: int64(2 * sim.Millisecond),
	DaemonStorm:   64,
	DiskSlow:      int64(10 * sim.Millisecond),
	DiskError:     int64(2 * sim.Millisecond),
	MemShrink:     64,
	MemGrow:       64,
	FarSlow:       int64(1 * sim.Millisecond),
	FarShrink:     32,
	FarGrow:       32,
}

// String returns the site's stable plan-string name.
func (s Site) String() string {
	if s < NumSites {
		return siteNames[s]
	}
	return "unknown"
}

// Timed reports whether the site fires on a schedule instead of a
// probability roll.
func (s Site) Timed() bool { return s < NumSites && timedSite[s] }

// Fault arms one site. Probabilistic sites roll Prob at every
// opportunity inside the [After, Until) window (Until zero means no
// end); timed sites (mem-shrink/grow) fire once at At. Mag is the
// site-specific magnitude; zero selects the site default.
type Fault struct {
	Site  Site
	Prob  float64
	Mag   int64
	At    sim.Time
	After sim.Time
	Until sim.Time

	// Node scopes a timed mem-shrink/grow fault to one memory node of
	// a sharded pool: 0 means unscoped (the historical whole-machine
	// behavior), k+1 targets node k (plan-string option "node=k").
	Node int
}

// Plan is a complete fault schedule: pure, replayable data.
type Plan struct {
	Seed   uint64
	Faults []Fault
}

// TargetsFar reports whether any fault in the plan arms a far-tier
// site. Such plans only do anything on a machine configured with a
// far tier; callers without one use this to enable it.
func (p Plan) TargetsFar() bool {
	for _, f := range p.Faults {
		switch f.Site {
		case FarSlow, FarDrop, FarShrink, FarGrow:
			return true
		}
	}
	return false
}

// Counts is the per-site number of injected faults.
type Counts [NumSites]int64

// Get returns the count for one site.
func (c Counts) Get(s Site) int64 { return c[s] }

// Total returns the number of faults injected across all sites.
func (c Counts) Total() int64 {
	var t int64
	for _, n := range c {
		t += n
	}
	return t
}

// Map returns the nonzero counts keyed by site name.
func (c Counts) Map() map[string]int64 {
	m := map[string]int64{}
	for s, n := range c {
		if n != 0 {
			m[siteNames[s]] = n
		}
	}
	return m
}

// Injector executes a Plan. A nil *Injector is valid at every
// injection point and injects nothing.
type Injector struct {
	sim *sim.Sim
	rec *events.Recorder

	// One independent stream per site: a plan listing only disk
	// faults draws exactly the same releaser decisions (none) as a
	// plan with no releaser faults at all.
	rngs   [NumSites]*sim.Rand
	faults [NumSites][]Fault
	timed  []Fault
	counts Counts

	// OnFault, if non-nil, runs synchronously after every injected
	// fault; the driver wires the continuous audit here so invariant
	// violations are caught at the step that caused them.
	OnFault func(Site)
}

// NewInjector builds the injector for one run. rec may be nil
// (injections then go unrecorded but still fire).
func NewInjector(s *sim.Sim, rec *events.Recorder, plan Plan) *Injector {
	in := &Injector{sim: s, rec: rec}
	for site := Site(0); site < NumSites; site++ {
		// Salt the per-site seeds so sites decorrelate even for small
		// consecutive plan seeds.
		in.rngs[site] = sim.NewRand(plan.Seed*0x9e3779b97f4a7c15 + uint64(site)*0x9e37 + 1)
	}
	for _, f := range plan.Faults {
		if f.Site >= NumSites {
			continue
		}
		if f.Site.Timed() {
			in.timed = append(in.timed, f)
		} else {
			in.faults[f.Site] = append(in.faults[f.Site], f)
		}
	}
	return in
}

// Counts returns the per-site injection totals so far.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return in.counts
}

// inject records one fired fault: count, event, audit hook.
func (in *Injector) inject(site Site, actor string, page int, mag int64) {
	in.counts[site]++
	in.rec.Emit(events.ChaosInject, actor, siteNames[site], page, mag, 0)
	if in.OnFault != nil {
		in.OnFault(site)
	}
}

// roll decides whether a probabilistic site fires now and returns the
// armed magnitude. Nothing is drawn when the site is unarmed or
// outside its window, so an armed-elsewhere plan cannot perturb this
// site's stream.
func (in *Injector) roll(site Site, actor string, page int) (int64, bool) {
	if in == nil || len(in.faults[site]) == 0 {
		return 0, false
	}
	now := in.sim.Now()
	for i := range in.faults[site] {
		f := &in.faults[site][i]
		if now < f.After || (f.Until > 0 && now >= f.Until) {
			continue
		}
		if f.Prob <= 0 {
			continue
		}
		if f.Prob < 1 && in.rngs[site].Float64() >= f.Prob {
			continue
		}
		mag := f.Mag
		if mag == 0 {
			mag = defaultMag[site]
		}
		in.inject(site, actor, page, mag)
		return mag, true
	}
	return 0, false
}

// Fire rolls a probabilistic site whose magnitude is irrelevant
// (dropped/duplicated/late hints, stale shared-page updates). The nil
// check stays in front of the out-of-line roll so that Fire inlines:
// with injection off, a hint path pays one comparison, not two calls.
func (in *Injector) Fire(site Site, actor string, page int) bool {
	if in == nil {
		return false
	}
	_, ok := in.roll(site, actor, page)
	return ok
}

// FireDelay rolls a site whose magnitude is a duration (releaser
// stalls, disk latency spikes, disk-error backoff); zero means the
// fault did not fire.
func (in *Injector) FireDelay(site Site, actor string) sim.Time {
	mag, ok := in.roll(site, actor, -1)
	if !ok {
		return 0
	}
	return sim.Time(mag)
}

// FireExtra rolls a site whose magnitude is a page count (daemon
// steal storms); zero means the fault did not fire.
func (in *Injector) FireExtra(site Site, actor string) int {
	mag, ok := in.roll(site, actor, -1)
	if !ok {
		return 0
	}
	return int(mag)
}

// shrinkRetry is the re-try cadence when a hot-unplug cannot take all
// requested frames offline at once (memory must be stolen first).
const shrinkRetry = 10 * sim.Millisecond

// ScheduleMem arms the plan's timed mem-shrink/grow faults against
// phys. maxOffline caps the total frames ever offline at once so a
// shrink cannot wedge the machine; kick (may be nil) asks the paging
// daemons for memory when a shrink needs more free frames — it is
// called with the targeted node index, or -1 for an unscoped fault
// (kick whichever daemons the kernel sees fit). A fault with Node set
// unplugs/replugs only that node's region.
func (in *Injector) ScheduleMem(phys *mem.Phys, maxOffline int, kick func(node int)) {
	if in == nil {
		return
	}
	in.schedule(pool{
		shrink: MemShrink, grow: MemGrow, nodes: phys.Nodes(),
		offlineCount: phys.OfflineCount, offline: phys.OfflineNode, online: phys.OnlineNode,
		kick: kick,
	}, maxOffline)
}

// ScheduleFar arms the plan's timed far-shrink/grow faults against the
// far tier. Only free slots can go offline (demoted pages stay where
// they are, as on a real device being drained), so a shrink takes what
// is drainable now and retries on the ScheduleMem cadence — promotions
// replenish the free stacks — until it reaches its magnitude or the
// maxOffline cap. Far faults ignore node= and kick no daemon. A no-op
// when the run has no far tier, which is what keeps far faults in an
// "all" plan inert on far-disabled runs.
func (in *Injector) ScheduleFar(far *mem.FarTier, maxOffline int) {
	if in == nil || far == nil {
		return
	}
	in.schedule(pool{
		shrink: FarShrink, grow: FarGrow, nodes: far.Nodes(),
		offlineCount: far.OfflineCount,
		offline:      func(_, n int) int { return far.Offline(n) },
		online:       func(_, n int) int { return far.Online(n) },
	}, maxOffline)
}

// pool is a hot-pluggable capacity that a pair of timed shrink/grow
// sites acts on.
type pool struct {
	shrink, grow Site
	nodes        int // Fault.Node is clamped below this
	offlineCount func() int
	// offline/online take up to n units out of / back into service on
	// one node (node < 0: the whole machine) and return how many did.
	offline, online func(node, n int) int
	kick            func(node int) // may be nil
}

// schedule arms the plan's timed faults at pl's shrink and grow sites.
// A shrink that cannot take its whole magnitude at once (only free
// units go offline) kicks for memory and retries every shrinkRetry
// until it has it, never exceeding maxOffline units offline at once.
func (in *Injector) schedule(pl pool, maxOffline int) {
	for _, f := range in.timed {
		if f.Site != pl.shrink && f.Site != pl.grow {
			continue
		}
		mag := f.Mag
		if mag == 0 {
			mag = defaultMag[f.Site]
		}
		at := f.At
		if at == 0 {
			at = f.After
		}
		// node < 0 means whole-machine; otherwise the fault is scoped
		// to one region (clamped so a stale plan cannot panic).
		node := min(f.Node-1, pl.nodes-1)
		if f.Site == pl.grow {
			in.sim.At(at, func() {
				if got := pl.online(node, int(mag)); got > 0 {
					in.inject(pl.grow, "chaos", -1, int64(got))
				}
			})
			continue
		}
		remaining := int(mag)
		var step func()
		step = func() {
			if over := pl.offlineCount() + remaining - maxOffline; over > 0 {
				remaining -= over
			}
			if remaining <= 0 {
				return
			}
			got := pl.offline(node, remaining)
			remaining -= got
			if got > 0 {
				in.inject(pl.shrink, "chaos", -1, int64(got))
			}
			if remaining > 0 {
				// Not enough free units yet: ask for memory and take
				// the rest as it is freed.
				if pl.kick != nil {
					pl.kick(node)
				}
				in.sim.After(shrinkRetry, step)
			}
		}
		in.sim.At(at, step)
	}
}
