// Package events is the memory system's flight recorder: a typed,
// capacity-bounded ring buffer of decision-point events (faults,
// daemon sweeps and steals, releaser outcomes, run-time hint
// filtering, shared-page updates) stamped with virtual time, plus an
// exact per-kind counter registry that keeps counting even after the
// ring starts dropping.
//
// The sampling recorder in internal/trace answers "what did the gauges
// look like every N milliseconds"; this package answers "what exactly
// happened, in order". Recording is off by default: every layer holds
// a *Recorder that is nil until kernel.System.SetEvents installs one,
// and Emit on a nil Recorder returns immediately, so instrumented hot
// paths cost one call and one branch when disabled (see
// BenchmarkEmitDisabled).
package events

import (
	"memhogs/internal/sim"
)

// Kind is the event type. The set mirrors the decision points of every
// layer the paper's figures talk about.
type Kind uint8

// Event kinds. A and B are kind-specific values; see argLabels.
const (
	FaultSoft         Kind = iota // vm: soft fault (A=1 when daemon-caused)
	FaultRescue                   // vm: free-list rescue (A=1 when on a prefetch)
	FaultHard                     // vm: fault requiring disk I/O
	PageIn                        // vm: page became resident (A: 0 fault, 1 readahead, 2 prefetch)
	DaemonWake                    // daemon: activation (A=free pages)
	DaemonClear                   // daemon: cleared a simulated reference bit
	DaemonSteal                   // daemon: stole a page (A=free after, B=1 for a maxrss trim)
	DaemonDonated                 // daemon: reclaimed a volunteered page (reactive §2.2)
	ReleaserFree                  // releaser: freed a requested page (B=1 when dirty)
	ReleaserSkipRef               // releaser: skipped, referenced since the request
	ReleaserSkipGone              // releaser: skipped, no longer resident
	RTPrefetchFilter              // rt: prefetch hint dropped by the bitmap check
	RTPrefetchIssue               // rt: prefetch hint handed to a worker
	RTPrefetchDrop                // rt: prefetch work queue overflow
	RTReleaseDup                  // rt: one-request-behind duplicate drop
	RTReleaseNotRes               // rt: bitmap says the page is not in memory
	RTReleaseBuffer               // rt: hint parked in a priority queue (A=priority)
	RTReleaseOverflow             // rt: buffered queue hit its cap
	RTReleaseIssue                // rt: batch sent to the OS (A=#pages)
	RTPressureDrain               // rt: near-limit drain (A=current, B=limit)
	PMRefresh                     // pdpm: shared-page update (A=current, B=limit)
	PMPrefetchCall                // pdpm: prefetch system call (A=vm.PrefetchResult)
	PMReleaseCall                 // pdpm: release system call (A=#pages)
	ChaosInject                   // chaos: injected fault (Target=site, A=magnitude)
	AllocLocal                    // mem: frame allocated from the owner's home node (A=node)
	AllocRemote                   // mem: frame stolen from another node (A=home, B=donor)
	BalancerMigrate               // balancer: free frames migrated (Target=dst node, A=#frames, B=src)
	FaultFar                      // vm: fault on a far-resident page (promotes, no disk I/O)
	TierDemote                    // releaser: page demoted DRAM -> far (A=priority, B=1 when dirty)
	TierPromote                   // vm: page promoted far -> DRAM (A=1 via prefetch, B=1 when dirty)
	KindCount
)

var kindNames = [KindCount]string{
	FaultSoft:         "fault-soft",
	FaultRescue:       "fault-rescue",
	FaultHard:         "fault-hard",
	PageIn:            "page-in",
	DaemonWake:        "daemon-wake",
	DaemonClear:       "daemon-clear",
	DaemonSteal:       "daemon-steal",
	DaemonDonated:     "daemon-donated",
	ReleaserFree:      "releaser-free",
	ReleaserSkipRef:   "releaser-skip-ref",
	ReleaserSkipGone:  "releaser-skip-gone",
	RTPrefetchFilter:  "rt-prefetch-filter",
	RTPrefetchIssue:   "rt-prefetch-issue",
	RTPrefetchDrop:    "rt-prefetch-drop",
	RTReleaseDup:      "rt-release-dup",
	RTReleaseNotRes:   "rt-release-notresident",
	RTReleaseBuffer:   "rt-release-buffer",
	RTReleaseOverflow: "rt-release-overflow",
	RTReleaseIssue:    "rt-release-issue",
	RTPressureDrain:   "rt-pressure-drain",
	PMRefresh:         "pm-refresh",
	PMPrefetchCall:    "pm-prefetch-call",
	PMReleaseCall:     "pm-release-call",
	ChaosInject:       "chaos-inject",
	AllocLocal:        "alloc-local",
	AllocRemote:       "alloc-remote",
	BalancerMigrate:   "balancer-migrate",
	FaultFar:          "fault-far",
	TierDemote:        "tier-demote",
	TierPromote:       "tier-promote",
}

// argLabels gives the A/B values a name in exported output; "" means
// the value is meaningless for the kind and is omitted.
var argLabels = [KindCount][2]string{
	FaultSoft:       {"daemon_caused", ""},
	FaultRescue:     {"prefetch", ""},
	PageIn:          {"via", ""},
	DaemonWake:      {"free", ""},
	DaemonSteal:     {"free", "trim"},
	ReleaserFree:    {"", "dirty"},
	RTReleaseBuffer: {"prio", ""},
	RTReleaseIssue:  {"pages", ""},
	RTPressureDrain: {"current", "limit"},
	PMRefresh:       {"current", "limit"},
	PMPrefetchCall:  {"result", ""},
	PMReleaseCall:   {"pages", ""},
	ChaosInject:     {"mag", ""},
	AllocLocal:      {"node", ""},
	AllocRemote:     {"home", "donor"},
	BalancerMigrate: {"frames", "from"},
	TierDemote:      {"prio", "dirty"},
	TierPromote:     {"prefetch", "dirty"},
}

// String returns the kind's stable exported name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one recorded occurrence.
type Event struct {
	At     sim.Time
	Kind   Kind
	Actor  string // emitting track: a process name or "pageoutd"/"releaserd"
	Target string // secondary subject (e.g. the steal victim); "" if none
	Page   int    // virtual page number; -1 if not page-scoped
	A, B   int64  // kind-specific values, see argLabels
}

// Counts is the exact per-kind totals, unaffected by ring drops.
type Counts [KindCount]int64

// Get returns the total for one kind.
func (c Counts) Get(k Kind) int64 { return c[k] }

// Recorder is the flight recorder. The zero value is not usable; use
// New. A nil *Recorder is valid everywhere and records nothing:
// every exported method tolerates a nil receiver (enforced by simvet
// SV004), which is what keeps recording one branch when off.
//
//simvet:nilsafe
type Recorder struct {
	sim *sim.Sim
	// The ring is stored in fixed-size chunks allocated on first use,
	// so a short run that emits a few thousand events never pays for
	// (or makes the garbage collector scan) the full capacity. head is
	// the ring index of the oldest retained event, n the number
	// retained.
	chunks  [][]Event
	ringCap int
	head    int
	n       int
	dropped int64
	counts  Counts
}

// DefaultCapacity bounds the ring when New is given capacity <= 0.
const DefaultCapacity = 1 << 16

// chunkShift sizes the lazily-allocated ring chunks (1024 events,
// ~80 KB: big enough to amortize, small enough that sparse use stays
// cheap).
const chunkShift = 10

// New creates a recorder stamping events with s's virtual clock,
// retaining at most capacity events (older ones are dropped and
// counted, flight-recorder style).
func New(s *sim.Sim, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	nchunks := (capacity + (1 << chunkShift) - 1) >> chunkShift
	return &Recorder{sim: s, ringCap: capacity, chunks: make([][]Event, nchunks)}
}

// slot returns the event at ring index i, allocating its chunk on
// first touch.
//
//simvet:hot
func (r *Recorder) slot(i int) *Event {
	c := r.chunks[i>>chunkShift]
	if c == nil {
		//simvet:allow SV006 one-time lazy chunk allocation, amortized over 1024 events
		c = make([]Event, 1<<chunkShift)
		r.chunks[i>>chunkShift] = c
	}
	return &c[i&(1<<chunkShift-1)]
}

// Emit records one event. Safe (and free) on a nil Recorder.
//
//simvet:hot
func (r *Recorder) Emit(k Kind, actor, target string, page int, a, b int64) {
	if r == nil {
		return
	}
	r.counts[k]++
	var idx int
	if r.n < r.ringCap {
		idx = (r.head + r.n) % r.ringCap
		r.n++
	} else {
		// Full: overwrite the oldest.
		idx = r.head
		r.head = (r.head + 1) % r.ringCap
		r.dropped++
	}
	*r.slot(idx) = Event{At: r.sim.Now(), Kind: k, Actor: actor, Target: target, Page: page, A: a, B: b}
}

// Len returns the number of events retained in the ring.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Dropped returns how many events the bounded ring discarded.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Counts returns the exact per-kind totals (valid even after drops).
func (r *Recorder) Counts() Counts {
	if r == nil {
		return Counts{}
	}
	return r.counts
}

// Events returns the retained events in chronological order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, r.n)
	r.each(func(e *Event) { out = append(out, *e) })
	return out
}

// each calls f on every retained event, oldest first, with a pointer
// into the ring rather than a copy.
func (r *Recorder) each(f func(e *Event)) {
	if r == nil {
		return
	}
	for i := 0; i < r.n; i++ {
		j := (r.head + i) % r.ringCap
		f(&r.chunks[j>>chunkShift][j&(1<<chunkShift-1)])
	}
}
