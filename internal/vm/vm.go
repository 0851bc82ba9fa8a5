// Package vm implements per-process virtual memory: dense page tables,
// the fault paths (soft, rescue, hard), reference-bit emulation in
// software, and page-in/page-out against the striped swap.
//
// The model follows IRIX 6.5 on MIPS as described in the paper:
//
//   - The TLB has no reference bits, so the paging daemon simulates
//     them by invalidating mappings (clearing the Valid bit); a later
//     access takes a cheap *soft fault* that revalidates the page.
//     Figure 8 of the paper counts exactly these faults.
//   - A fault on a page whose old frame is still on the free list is
//     *rescued* without I/O.
//   - Fault handling and the paging daemon contend for a per-address-
//     space memory lock; the lock is dropped during disk I/O.
package vm

import (
	"fmt"
	"math/bits"

	"memhogs/internal/chaos"
	"memhogs/internal/disk"
	"memhogs/internal/events"
	"memhogs/internal/mem"
	"memhogs/internal/sim"
)

// Bucket classifies where a process's time goes. The paper's Figure 7
// bars are built from these: user, system, stall-resources
// (memory+locks+CPU) and stall-I/O.
type Bucket int

// Time buckets.
const (
	BucketUser Bucket = iota
	BucketSystem
	BucketStallMem  // waiting for free physical memory
	BucketStallLock // waiting for memory-system locks
	BucketStallCPU  // waiting for a CPU
	BucketStallIO   // waiting for page I/O
	NumBuckets
)

func (b Bucket) String() string {
	switch b {
	case BucketUser:
		return "user"
	case BucketSystem:
		return "system"
	case BucketStallMem:
		return "stall-mem"
	case BucketStallLock:
		return "stall-lock"
	case BucketStallCPU:
		return "stall-cpu"
	case BucketStallIO:
		return "stall-io"
	default:
		return fmt.Sprintf("bucket(%d)", int(b))
	}
}

// Exec is the execution context a simulated thread supplies to the VM
// layer: it consumes CPU in system mode and attributes stall time.
// The kernel package provides implementations backed by its CPU
// scheduler and per-process time accounting.
type Exec interface {
	// Proc returns the simulated process to block on.
	Proc() *sim.Proc
	// System consumes d of CPU time in system mode (contending for a
	// CPU with everyone else).
	System(d sim.Time)
	// Account attributes d of elapsed stall time to bucket b.
	Account(b Bucket, d sim.Time)
}

// InvalidReason records why a resident page's Valid bit is clear, so
// the resulting soft fault can be attributed (Figure 8 counts
// daemon-caused soft faults).
type InvalidReason int8

// Reasons a mapping can be invalid.
const (
	InvalidNone     InvalidReason = iota // page is valid
	InvalidDaemon                        // paging daemon reference-bit pass
	InvalidRelease                       // pending explicit release request
	InvalidPrefetch                      // prefetched but never referenced
)

// PTE is a page-table entry.
type PTE struct {
	Frame   mem.FrameID // physical frame; survives unmapping for rescue
	Present bool        // page is resident and owned
	Valid   bool        // mapping validated (reference-bit emulation)
	Busy    bool        // page-in in flight
	Why     InvalidReason

	// FarSlot is the page's far-tier slot when it has been demoted
	// (NoFarSlot otherwise). A far-resident page is never Present and
	// holds no frame — each page lives in exactly one tier, an
	// invariant kernel.Audit enforces.
	FarSlot mem.FarSlotID
}

// Outcome classifies a Touch.
type Outcome int8

// Touch outcomes.
const (
	Hit Outcome = iota
	SoftFault
	RescueFault
	HardFault
	FarFault // resolved from the far tier at far-tier latency
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case SoftFault:
		return "soft"
	case RescueFault:
		return "rescue"
	case FarFault:
		return "far"
	default:
		return "hard"
	}
}

// Watcher receives residency-change notifications; the PagingDirected
// policy module uses it to keep the shared page's bitmap current
// (§3.1.1: "All updates to the shared page are handled by the OS").
type Watcher interface {
	// PageIn is called when vpn becomes resident (fault or prefetch).
	PageIn(vpn int)
	// PageOut is called when vpn loses residency (steal or release).
	PageOut(vpn int)
	// Revalidate is called when a soft fault re-validates vpn.
	Revalidate(vpn int)
	// Activity is called on any memory-system activity by the owning
	// process, which is when the OS refreshes the shared page's usage
	// and limit words (§3.1.1: estimates are updated "only when the
	// process experiences some type of memory system activity").
	Activity()
}

// Params are the VM cost parameters (see kernel.Config for the
// platform defaults).
type Params struct {
	SoftFaultTime sim.Time // revalidation fault service (CPU)
	RescueTime    sim.Time // free-list rescue fault service (CPU)
	HardFaultCPU  sim.Time // CPU portion of a fault requiring I/O
	PageoutCPU    sim.Time // CPU to initiate a page writeback
	// Readahead is the swap-in cluster size: a demand fault also
	// starts asynchronous reads for the following pages (IRIX swap
	// klustering). 0 or 1 disables. Readahead pages arrive unvalidated
	// and are dropped when no free memory exists, like prefetches.
	Readahead int

	// NoRescue disables free-list rescues (ablation): a fault on a
	// freed-but-unreallocated page reads it back from swap instead.
	NoRescue bool

	// HardwareRefBits models a TLB with hardware reference bits
	// (the paper's closing question): the paging daemon's
	// reference-bit pass no longer causes software soft faults —
	// revalidation after a daemon invalidation is free and uncounted.
	HardwareRefBits bool

	// FarLatency is the fixed access latency for promoting a page out
	// of the far tier (byte-addressable: no positioning cost). Only
	// used when the address space has a far tier attached.
	FarLatency sim.Time
	// FarCPU is the CPU portion of a far-tier fault or demotion.
	FarCPU sim.Time
}

// Stats are per-address-space VM counters.
type Stats struct {
	Touches          int64
	SoftFaults       int64
	SoftFaultsDaemon int64 // caused by the daemon's invalidation pass
	RescueFaults     int64
	HardFaults       int64 // faults requiring disk I/O
	ReadaheadIns     int64 // pages brought in by swap clustering
	PageIns          int64
	Writebacks       int64
	StolenPages      int64 // taken by the paging daemon
	ReleasedPages    int64 // freed by the releaser
	PeakResident     int64 // high-water mark of the resident set, in pages
	FarFaults        int64 // faults resolved from the far tier (far hits)
	Demotions        int64 // pages moved DRAM -> far
	Promotions       int64 // pages moved far -> DRAM (faults + prefetches)
	PeakFarResident  int64 // high-water mark of the far-tier resident set, in pages
}

// AS is an address space: a dense page table over a fixed number of
// virtual pages, plus the machinery shared with the paging and
// releaser daemons.
type AS struct {
	name string
	id   int

	ptes        []PTE
	Resident    int // resident page count (DRAM only)
	FarResident int // pages currently demoted to the far tier
	MaxRSS      int // trim threshold (frames); default: no limit

	// resBits/valBits are packed bitmaps mirroring the Present and
	// Valid bits of the page table, one bit per vpn, so daemons can
	// scan residency word-at-a-time instead of walking PTE structs.
	// The PTE array stays the source of truth (the audit cross-checks
	// bitmap against PTEs); every Present/Valid mutation updates both.
	resBits []uint64
	valBits []uint64

	// Memlock is the per-AS memory-system lock contended by fault
	// handling, the paging daemon and the releaser.
	Memlock *sim.Lock

	phys   *mem.Phys
	disks  *disk.Array
	params Params

	swapBase int64 // global swap page offset for striping

	ioWait  *sim.Waitq // waiters on in-flight page-ins
	watcher Watcher

	// inflight registers every page-in operation (demand fault,
	// readahead, prefetch) for the whole time its PTE is Busy —
	// including the wait for a free frame before the disk read is
	// even submitted. The audit uses it to prove that a Busy bit
	// always corresponds to a real outstanding page-in.
	inflight map[int]bool

	// OverLimit, if non-nil, is invoked whenever the resident set
	// grows beyond MaxRSS; the kernel wires it to the paging daemon's
	// kick so maxrss trimming happens promptly.
	OverLimit func()

	// Events is the flight recorder; nil (the default) disables
	// recording at near-zero cost.
	Events *events.Recorder

	// Far is the optional far-memory tier (nil = no tier; demotion
	// requests fail and every fault path behaves exactly as before).
	// The kernel wires it when the configuration enables the tier.
	Far *mem.FarTier

	// Chaos is the fault injector; nil injects nothing.
	Chaos *chaos.Injector

	Stats Stats
}

// NewAS creates an address space with npages virtual pages backed by
// swap starting at swapBase.
func NewAS(name string, id int, npages int, swapBase int64, phys *mem.Phys, disks *disk.Array, params Params) *AS {
	as := &AS{
		name:     name,
		id:       id,
		ptes:     make([]PTE, npages),
		resBits:  make([]uint64, (npages+63)/64),
		valBits:  make([]uint64, (npages+63)/64),
		MaxRSS:   phys.NumFrames() + 1, // effectively unlimited
		Memlock:  sim.NewLock(name + ".memlock"),
		phys:     phys,
		disks:    disks,
		params:   params,
		swapBase: swapBase,
		ioWait:   sim.NewWaitq(name + ".iowait"),
		inflight: map[int]bool{},
	}
	for i := range as.ptes {
		as.ptes[i].Frame = mem.NoFrame
		as.ptes[i].FarSlot = mem.NoFarSlot
	}
	return as
}

// OwnerName implements mem.Owner.
func (as *AS) OwnerName() string { return as.name }

// OwnerID implements mem.Owner.
func (as *AS) OwnerID() int { return as.id }

// FrameInvalidated implements mem.Owner: the free-listed frame that
// still held vpn's data was reallocated, so the page can no longer be
// rescued.
func (as *AS) FrameInvalidated(vpn int) {
	as.ptes[vpn].Frame = mem.NoFrame
}

// SetWatcher installs the residency watcher (at most one; the
// PagingDirected PM).
func (as *AS) SetWatcher(w Watcher) { as.watcher = w }

// NumPages returns the size of the page table.
func (as *AS) NumPages() int { return len(as.ptes) }

// PTE returns the page-table entry for vpn (for daemons and tests).
func (as *AS) PTE(vpn int) *PTE { return &as.ptes[vpn] }

// setPresent/setValid mirror the named PTE bit into the packed bitmap
// alongside the field write. All Present/Valid mutations go through
// these so bitmap and page table cannot drift (the audit checks).
//
//simvet:hot
func (as *AS) setPresent(pte *PTE, vpn int, v bool) {
	pte.Present = v
	if v {
		as.resBits[vpn>>6] |= 1 << (uint(vpn) & 63)
	} else {
		as.resBits[vpn>>6] &^= 1 << (uint(vpn) & 63)
	}
}

//simvet:hot
func (as *AS) setValid(pte *PTE, vpn int, v bool) {
	pte.Valid = v
	if v {
		as.valBits[vpn>>6] |= 1 << (uint(vpn) & 63)
	} else {
		as.valBits[vpn>>6] &^= 1 << (uint(vpn) & 63)
	}
}

// ResidentBit reports vpn's bit in the packed residency bitmap (for
// the audit's bitmap-vs-PTE cross-check).
func (as *AS) ResidentBit(vpn int) bool {
	return as.resBits[vpn>>6]&(1<<(uint(vpn)&63)) != 0
}

// ValidBit reports vpn's bit in the packed validity bitmap.
func (as *AS) ValidBit(vpn int) bool {
	return as.valBits[vpn>>6]&(1<<(uint(vpn)&63)) != 0
}

// NextResident returns the first resident vpn at or after from, or -1
// when none remains, scanning the packed bitmap word-at-a-time.
//
//simvet:hot
func (as *AS) NextResident(from int) int {
	if from >= len(as.ptes) {
		return -1
	}
	w := from >> 6
	if word := as.resBits[w] &^ (1<<(uint(from)&63) - 1); word != 0 {
		return w<<6 + bits.TrailingZeros64(word)
	}
	for i := w + 1; i < len(as.resBits); i++ {
		if as.resBits[i] != 0 {
			return i<<6 + bits.TrailingZeros64(as.resBits[i])
		}
	}
	return -1
}

// beginPageIn/endPageIn bracket a page-in operation; they are always
// paired with setting/clearing the PTE's Busy bit.
func (as *AS) beginPageIn(vpn int) { as.inflight[vpn] = true }
func (as *AS) endPageIn(vpn int)   { delete(as.inflight, vpn) }

// PageInInFlight reports whether a page-in operation (fault,
// readahead or prefetch) is outstanding for vpn.
func (as *AS) PageInInFlight(vpn int) bool { return as.inflight[vpn] }

// InFlightPageIns returns the number of outstanding page-in
// operations.
func (as *AS) InFlightPageIns() int { return len(as.inflight) }

// ResidentValid reports whether vpn is resident with a valid mapping —
// the no-cost fast path.
func (as *AS) ResidentValid(vpn int) bool {
	pte := &as.ptes[vpn]
	return pte.Present && pte.Valid
}

// IsResident reports whether vpn is resident (the PM bitmap state,
// modulo pending release requests which clear bits early).
func (as *AS) IsResident(vpn int) bool { return as.ptes[vpn].Present }

func (as *AS) swapPage(vpn int) int64 { return as.swapBase + int64(vpn) }

// grew bumps the resident count and kicks the trimmer when the
// process exceeds its maxrss.
func (as *AS) grew() {
	as.Resident++
	if int64(as.Resident) > as.Stats.PeakResident {
		as.Stats.PeakResident = int64(as.Resident)
	}
	if as.Resident > as.MaxRSS && as.OverLimit != nil {
		as.OverLimit()
	}
}

func (as *AS) notifyIn(vpn int) {
	if as.watcher != nil {
		as.watcher.PageIn(vpn)
	}
}

func (as *AS) notifyOut(vpn int) {
	if as.watcher != nil {
		as.watcher.PageOut(vpn)
	}
}

func (as *AS) notifyActivity() {
	if as.watcher != nil {
		as.watcher.Activity()
	}
}

// Touch references vpn, taking whatever fault is needed. write marks
// the page dirty. The fast path (resident and valid) costs nothing and
// allocates nothing.
//
//simvet:hot
func (as *AS) Touch(x Exec, vpn int, write bool) Outcome {
	as.Stats.Touches++
	pte := &as.ptes[vpn]
	if pte.Present && pte.Valid {
		if write {
			as.phys.Frame(pte.Frame).Dirty = true
		}
		return Hit
	}
	return as.fault(x, vpn, write)
}

// fault is the slow path of Touch.
func (as *AS) fault(x Exec, vpn int, write bool) Outcome {
	p := x.Proc()
	pte := &as.ptes[vpn]
	outcome := Hit

	// Wait out any in-flight page-in first (e.g. our own prefetch or a
	// readahead): the process is stalled on I/O that is already
	// happening. The page can become busy *again* while we queue for
	// the memory lock — the lock's previous holder may have started a
	// readahead for it — so re-check after acquiring and go back to
	// waiting if so.
	for {
		for pte.Busy {
			start := p.Now()
			as.ioWait.Wait(p)
			x.Account(BucketStallIO, p.Now()-start)
		}
		wait := as.Memlock.Acquire(p)
		x.Account(BucketStallLock, wait)
		if !pte.Busy {
			break
		}
		as.Memlock.Release(p)
	}

	switch {
	case pte.Present && pte.Valid:
		// Resolved while we waited for the lock.
	case pte.Present:
		if as.params.HardwareRefBits && pte.Why == InvalidDaemon {
			// With hardware reference bits the daemon's scan just
			// cleared a bit the hardware sets again for free: no
			// software fault happens.
			as.setValid(pte, vpn, true)
			pte.Why = InvalidNone
			if as.watcher != nil {
				as.watcher.Revalidate(vpn)
			}
			break
		}
		// Soft fault: revalidate the mapping.
		outcome = SoftFault
		as.Stats.SoftFaults++
		var daemonCaused int64
		if pte.Why == InvalidDaemon {
			as.Stats.SoftFaultsDaemon++
			daemonCaused = 1
		}
		as.Events.Emit(events.FaultSoft, as.name, "", vpn, daemonCaused, 0)
		x.System(as.params.SoftFaultTime)
		as.setValid(pte, vpn, true)
		pte.Why = InvalidNone
		if as.watcher != nil {
			as.watcher.Revalidate(vpn)
		}
	case pte.FarSlot != mem.NoFarSlot:
		// Far-tier hit: promote the page back to DRAM at the tier's
		// fixed latency instead of paying a disk fault. The slot is
		// freed up front — identity travels with the in-flight page-in
		// (Busy bit), so the page is never in two tiers at once.
		outcome = FarFault
		as.Stats.FarFaults++
		as.Events.Emit(events.FaultFar, as.name, "", vpn, 0, 0)
		x.System(as.params.FarCPU)
		slot := as.Far.Slot(pte.FarSlot)
		wasDirty := slot.Dirty
		as.Far.Free(slot)
		pte.FarSlot = mem.NoFarSlot
		as.FarResident-- // with the slot gone, before any sleep: audits must see counter == slot PTEs
		pte.Busy = true
		as.beginPageIn(vpn)
		as.Memlock.Release(p)

		frame, memWait := as.phys.Alloc(p, as, vpn)
		x.Account(BucketStallMem, memWait)

		lat := as.params.FarLatency
		if extra := as.Chaos.FireDelay(chaos.FarSlow, as.name); extra > 0 {
			lat += extra
		}
		start := p.Now()
		p.Sleep(lat)
		x.Account(BucketStallIO, p.Now()-start)

		relock := as.Memlock.Acquire(p)
		x.Account(BucketStallLock, relock)
		pte.Frame = frame.ID
		frame.Dirty = wasDirty
		as.setPresent(pte, vpn, true)
		as.setValid(pte, vpn, true)
		pte.Busy = false
		as.endPageIn(vpn)
		pte.Why = InvalidNone
		as.Stats.Promotions++
		var d int64
		if wasDirty {
			d = 1
		}
		as.Events.Emit(events.TierPromote, as.name, "", vpn, 0, d)
		as.grew()
		as.notifyIn(vpn)
		as.ioWait.WakeAll()
	case pte.Frame != mem.NoFrame && !as.params.NoRescue:
		// The old frame is still on the free list: rescue it.
		outcome = RescueFault
		as.Stats.RescueFaults++
		as.Events.Emit(events.FaultRescue, as.name, "", vpn, 0, 0)
		x.System(as.params.RescueTime)
		if pte.Frame == mem.NoFrame {
			// Charging the rescue time descheduled us, and another
			// process's Alloc took the frame off the free list and
			// invalidated the mapping (FrameInvalidated does not take
			// the memory lock). The rescue has failed; retry the
			// fault from scratch — it will take the hard-fault path.
			as.Memlock.Release(p)
			as.notifyActivity()
			return as.fault(x, vpn, write)
		}
		as.phys.Rescue(as.phys.Frame(pte.Frame))
		as.setPresent(pte, vpn, true)
		as.setValid(pte, vpn, true)
		pte.Why = InvalidNone
		as.grew()
		as.notifyIn(vpn)
	default:
		// Hard fault: allocate a frame and read from swap.
		if pte.Frame != mem.NoFrame {
			// NoRescue ablation: sever the old free-listed frame's
			// identity so its eventual reallocation cannot clobber
			// the new mapping.
			as.phys.DropIdentity(as.phys.Frame(pte.Frame))
			pte.Frame = mem.NoFrame
		}
		outcome = HardFault
		as.Stats.HardFaults++
		as.Events.Emit(events.FaultHard, as.name, "", vpn, 0, 0)
		x.System(as.params.HardFaultCPU)
		pte.Busy = true
		as.beginPageIn(vpn)
		// Swap-in clustering: start asynchronous reads for the
		// following pages while we still hold the lock.
		for k := 1; k < as.params.Readahead; k++ {
			as.readahead(vpn + k)
		}
		as.Memlock.Release(p)

		frame, memWait := as.phys.Alloc(p, as, vpn)
		x.Account(BucketStallMem, memWait)

		start := p.Now()
		done := false
		as.disks.Submit(as.swapPage(vpn), &disk.Request{
			Op: disk.Read,
			Done: func() {
				done = true
				p.Wake()
			},
		})
		for !done {
			p.Park()
		}
		x.Account(BucketStallIO, p.Now()-start)
		as.Stats.PageIns++
		as.Events.Emit(events.PageIn, as.name, "", vpn, 0, 0)

		relock := as.Memlock.Acquire(p)
		x.Account(BucketStallLock, relock)
		pte.Frame = frame.ID
		as.setPresent(pte, vpn, true)
		as.setValid(pte, vpn, true)
		pte.Busy = false
		as.endPageIn(vpn)
		pte.Why = InvalidNone
		as.grew()
		as.notifyIn(vpn)
		as.ioWait.WakeAll()
	}

	if write && pte.Present {
		as.phys.Frame(pte.Frame).Dirty = true
	}
	as.Memlock.Release(p)
	as.notifyActivity()
	return outcome
}

// readahead starts an asynchronous swap-in of vpn if it is absent,
// idle, unrescuable, and a free frame is available. The page arrives
// resident but unvalidated; completion runs in the event loop (no
// blocking), which is safe in the single-threaded simulation.
func (as *AS) readahead(vpn int) {
	if vpn < 0 || vpn >= len(as.ptes) {
		return
	}
	pte := &as.ptes[vpn]
	if pte.Present || pte.Busy || pte.Frame != mem.NoFrame || pte.FarSlot != mem.NoFarSlot {
		return
	}
	frame, ok := as.phys.TryAlloc(as, vpn)
	if !ok {
		return
	}
	pte.Busy = true
	as.beginPageIn(vpn)
	as.Stats.ReadaheadIns++
	as.disks.Submit(as.swapPage(vpn), &disk.Request{
		Op: disk.Read,
		Done: func() {
			pte.Frame = frame.ID
			as.setPresent(pte, vpn, true)
			as.setValid(pte, vpn, false)
			pte.Why = InvalidPrefetch
			pte.Busy = false
			as.endPageIn(vpn)
			as.grew()
			as.Stats.PageIns++
			as.Events.Emit(events.PageIn, as.name, "", vpn, 1, 0)
			as.notifyIn(vpn)
			as.ioWait.WakeAll()
		},
	})
}

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

// Prefetch brings vpn into memory on behalf of the owning process,
// performing "actions similar to those that occur for a page fault,
// with two notable exceptions": it is discarded immediately when no
// free memory exists, and the page is left *invalid* (no TLB entry) so
// the first real reference revalidates it (§3.1.2). The caller is a
// prefetch worker thread, whose stall time is deliberately not charged
// to the application.
func (as *AS) Prefetch(x Exec, vpn int) PrefetchResult {
	p := x.Proc()
	pte := &as.ptes[vpn]
	if pte.Busy || (pte.Present) {
		return PrefetchAlreadyIn
	}

	wait := as.Memlock.Acquire(p)
	x.Account(BucketStallLock, wait)
	defer as.notifyActivity()

	if pte.Busy || pte.Present {
		as.Memlock.Release(p)
		return PrefetchAlreadyIn
	}
	if pte.FarSlot != mem.NoFarSlot {
		// Demoted page: promote it out of the far tier instead of
		// reading the stale swap copy. Like every prefetch, this is
		// discarded rather than stealing memory when DRAM is full.
		frame, ok := as.phys.TryAlloc(as, vpn)
		if !ok {
			as.Memlock.Release(p)
			return PrefetchDiscarded
		}
		slot := as.Far.Slot(pte.FarSlot)
		wasDirty := slot.Dirty
		as.Far.Free(slot)
		pte.FarSlot = mem.NoFarSlot
		as.FarResident-- // with the slot gone, before any sleep: audits must see counter == slot PTEs
		pte.Busy = true
		as.beginPageIn(vpn)
		x.System(as.params.FarCPU)
		as.Memlock.Release(p)

		lat := as.params.FarLatency
		if extra := as.Chaos.FireDelay(chaos.FarSlow, as.name); extra > 0 {
			lat += extra
		}
		start := p.Now()
		p.Sleep(lat)
		x.Account(BucketStallIO, p.Now()-start)

		wait = as.Memlock.Acquire(p)
		x.Account(BucketStallLock, wait)
		pte.Frame = frame.ID
		frame.Dirty = wasDirty
		as.setPresent(pte, vpn, true)
		as.setValid(pte, vpn, false) // not validated; no TLB entry
		pte.Why = InvalidPrefetch
		pte.Busy = false
		as.endPageIn(vpn)
		as.Stats.Promotions++
		var d int64
		if wasDirty {
			d = 1
		}
		as.Events.Emit(events.TierPromote, as.name, "", vpn, 1, d)
		as.grew()
		as.notifyIn(vpn)
		as.ioWait.WakeAll()
		as.Memlock.Release(p)
		return PrefetchPromoted
	}
	if pte.Frame != mem.NoFrame && as.params.NoRescue {
		as.phys.DropIdentity(as.phys.Frame(pte.Frame))
		pte.Frame = mem.NoFrame
	}
	if pte.Frame != mem.NoFrame {
		// Rescue from the free list; cheap, no I/O.
		x.System(as.params.RescueTime)
		as.phys.Rescue(as.phys.Frame(pte.Frame))
		as.setPresent(pte, vpn, true)
		as.setValid(pte, vpn, false)
		pte.Why = InvalidPrefetch
		as.grew()
		as.Stats.RescueFaults++
		as.Events.Emit(events.FaultRescue, as.name, "", vpn, 1, 0)
		as.notifyIn(vpn)
		as.Memlock.Release(p)
		return PrefetchRescued
	}

	// "If there is no free memory, the request is discarded
	// immediately. This feature prevents memory from being stolen to
	// satisfy prefetches when the demand for memory is high."
	frame, ok := as.phys.TryAlloc(as, vpn)
	if !ok {
		as.Memlock.Release(p)
		return PrefetchDiscarded
	}

	// Mark the page in flight before anything can block (the System
	// charge yields the CPU): the allocated frame must always be
	// traceable through the Busy bit.
	pte.Busy = true
	as.beginPageIn(vpn)
	x.System(as.params.HardFaultCPU)
	// "performs actions similar to those that occur for a page fault":
	// that includes swap-in clustering.
	for k := 1; k < as.params.Readahead; k++ {
		as.readahead(vpn + k)
	}
	as.Memlock.Release(p)

	start := p.Now()
	done := false
	as.disks.Submit(as.swapPage(vpn), &disk.Request{
		Op: disk.Read,
		Done: func() {
			done = true
			p.Wake()
		},
	})
	for !done {
		p.Park()
	}
	x.Account(BucketStallIO, p.Now()-start)
	as.Stats.PageIns++
	as.Events.Emit(events.PageIn, as.name, "", vpn, 2, 0)

	wait = as.Memlock.Acquire(p)
	x.Account(BucketStallLock, wait)
	pte.Frame = frame.ID
	as.setPresent(pte, vpn, true)
	as.setValid(pte, vpn, false) // not validated; no TLB entry
	pte.Why = InvalidPrefetch
	pte.Busy = false
	as.endPageIn(vpn)
	as.grew()
	as.notifyIn(vpn)
	as.ioWait.WakeAll()
	as.Memlock.Release(p)
	return PrefetchRead
}

// InvalidateForRelease clears the mapping validity for a pending
// release request so that a subsequent real reference is observable
// (the releaser skips pages referenced after the request). Called by
// the PM with the request, before queueing to the releaser. It does
// not free anything.
//
//simvet:hot
func (as *AS) InvalidateForRelease(vpn int) {
	pte := &as.ptes[vpn]
	if pte.Present && pte.Valid {
		as.setValid(pte, vpn, false)
		pte.Why = InvalidRelease
	}
}

// TryReclaim is used by the releaser daemon: it frees vpn's frame if
// the page is still resident and has not been referenced (validated)
// since the release request. The caller must hold Memlock. It returns
// (freed, needWriteback): when needWriteback is true the caller must
// write the returned swap page to disk before the free is final (we
// model the writeback before freeing, as the releaser "performs all
// actions needed to free the pages, including writing back dirty
// pages").
func (as *AS) TryReclaim(vpn int, kind mem.FreeKind) (freed bool, dirty bool) {
	pte := &as.ptes[vpn]
	if !pte.Present || pte.Busy {
		return false, false
	}
	if pte.Valid {
		// Referenced again since the request; still in use.
		return false, false
	}
	frame := as.phys.Frame(pte.Frame)
	dirty = frame.Dirty
	as.setPresent(pte, vpn, false)
	as.setValid(pte, vpn, false)
	pte.Why = InvalidNone
	as.Resident--
	// Identity stays in pte.Frame and the frame itself, enabling
	// rescue until reallocation.
	frame.Dirty = false
	as.phys.Free(frame, kind)
	if kind == mem.FreedDaemon {
		as.Stats.StolenPages++
	} else {
		as.Stats.ReleasedPages++
	}
	as.notifyOut(vpn)
	return true, dirty
}

// TryDemote moves vpn's page from DRAM to the far tier, used by the
// releaser when a release hint carries enough reuse priority that the
// page is worth keeping closer than swap. Eligibility is exactly
// TryReclaim's (resident, idle, not referenced since the request); on
// top of that the far tier must have a free slot — a full tier returns
// false and the caller falls back to swap. The DRAM frame's identity
// is dropped before it is freed so the page is never simultaneously
// far-resident and rescuable. The page keeps its contents (the tier is
// byte-addressable), so a dirty page needs no swap writeback. The
// caller must hold Memlock.
func (as *AS) TryDemote(vpn int) (demoted bool, dirty bool) {
	if as.Far == nil {
		return false, false
	}
	pte := &as.ptes[vpn]
	if !pte.Present || pte.Busy || pte.Valid {
		return false, false
	}
	slot, ok := as.Far.TryAlloc(as.phys.HomeOf(as.id), as, vpn)
	if !ok {
		return false, false
	}
	frame := as.phys.Frame(pte.Frame)
	dirty = frame.Dirty
	slot.Dirty = dirty
	as.phys.DropIdentity(frame)
	as.phys.Free(frame, mem.FreedRelease)
	pte.Frame = mem.NoFrame
	as.setPresent(pte, vpn, false)
	as.setValid(pte, vpn, false)
	pte.Why = InvalidNone
	pte.FarSlot = slot.ID
	as.Resident--
	as.FarResident++
	as.Stats.Demotions++
	if int64(as.FarResident) > as.Stats.PeakFarResident {
		as.Stats.PeakFarResident = int64(as.FarResident)
	}
	as.notifyOut(vpn)
	return true, dirty
}

// ClearValid clears the Valid bit with the given reason (the paging
// daemon's reference-bit emulation pass). Caller holds Memlock.
//
//simvet:hot
func (as *AS) ClearValid(vpn int, why InvalidReason) bool {
	pte := &as.ptes[vpn]
	if pte.Present && pte.Valid && !pte.Busy {
		as.setValid(pte, vpn, false)
		pte.Why = why
		return true
	}
	return false
}

// MarkClockCandidate re-attributes an already-invalid mapping to the
// paging daemon's clock, giving pages that are invalid for other
// reasons (e.g. prefetched but not yet referenced) one full clock pass
// of grace before they become steal candidates. Caller holds Memlock.
//
//simvet:hot
func (as *AS) MarkClockCandidate(vpn int) {
	pte := &as.ptes[vpn]
	if pte.Present && !pte.Valid && !pte.Busy {
		pte.Why = InvalidDaemon
	}
}

// WritebackSwapPage returns the striped swap page number for vpn, for
// daemons issuing writebacks.
func (as *AS) WritebackSwapPage(vpn int) int64 { return as.swapPage(vpn) }

// Disks exposes the disk array (for daemons sharing the AS's backing
// store).
func (as *AS) Disks() *disk.Array { return as.disks }

// Phys exposes the physical pool.
func (as *AS) Phys() *mem.Phys { return as.phys }
