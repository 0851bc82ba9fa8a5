// Package mem models physical memory: a fixed pool of page frames
// split into one or more node-local regions (NUMA sharding), each with
// its own free list.
//
// The free lists preserve the identity of freed pages: a frame freed
// by the paging daemon or by an explicit release remembers which
// address space and virtual page it held until the frame is
// reallocated. A subsequent fault on that virtual page can then
// "rescue" the frame cheaply instead of reading it back from swap —
// the mechanism the paper uses to measure how many pages were freed
// too early (Figure 9). Released pages go to the *tail* of the list,
// "giving pages that were released too early a chance to be rescued"
// (§3.1.2), while allocation takes from the head.
//
// Sharding follows an origin-based region-per-node layout: frame i
// belongs to node i/regionSize for its whole life. A free frame may
// temporarily sit on another node's list (the balancer loans frames to
// starved nodes), but freeing always repatriates it to its origin
// node's tail. Allocation prefers the owner's home node and steals
// from the richest other node only when the home list is empty. With
// nodes=1 every path below degenerates to the original single-list
// behavior bit-for-bit (pinned by TestTraceDigests).
package mem

import (
	"fmt"
	"math/bits"

	"memhogs/internal/events"
	"memhogs/internal/sim"
)

// FrameID identifies a physical page frame. NoFrame means "none".
type FrameID int32

// NoFrame is the sentinel for "no frame".
const NoFrame FrameID = -1

// Owner is implemented by address spaces so the physical layer can
// notify the owner when one of its resident pages loses its frame
// (reallocation of a free-listed frame destroys the old identity).
type Owner interface {
	// FrameInvalidated tells the owner that vpn's frame was taken
	// away for good (the page is no longer rescuable).
	FrameInvalidated(vpn int)
	// OwnerName returns a diagnostic name.
	OwnerName() string
	// OwnerID returns a small unique id used in stats maps.
	OwnerID() int
}

// FreeKind says how a frame got onto the free list, for outcome
// accounting.
type FreeKind int8

// Free-list entry origins.
const (
	FreedNone    FreeKind = iota // not on free list
	FreedDaemon                  // stolen by the paging daemon
	FreedRelease                 // freed by an explicit release
	FreedExit                    // owner exited / teardown
)

func (k FreeKind) String() string {
	switch k {
	case FreedDaemon:
		return "daemon"
	case FreedRelease:
		return "release"
	case FreedExit:
		return "exit"
	default:
		return "none"
	}
}

// Frame is one physical page frame. Frames form intrusive doubly
// linked per-node free lists so that free/alloc/rescue are all O(1).
type Frame struct {
	ID    FrameID
	Owner Owner // nil when the frame holds no identifiable page
	VPN   int   // virtual page number within Owner
	Dirty bool

	freeKind   FreeKind
	prev, next FrameID // free-list links, valid when freeKind != FreedNone
	listNode   int32   // which node's free list holds the frame (balancer loans)
	offline    bool    // hot-unplugged: neither free nor allocatable
}

// OnFreeList reports whether the frame is currently on a free list.
func (f *Frame) OnFreeList() bool { return f.freeKind != FreedNone }

// Kind reports how the frame was freed (FreedNone if resident).
func (f *Frame) Kind() FreeKind { return f.freeKind }

// IsOffline reports whether the frame is hot-unplugged.
func (f *Frame) IsOffline() bool { return f.offline }

// Stats tracks free-list outcomes for the paper's Figure 9 and
// Table 3, plus the NUMA counters (all zero with one node).
type Stats struct {
	FreedByDaemon  int64 // frames placed on free list by the paging daemon
	FreedByRelease int64 // frames placed on free list by explicit release
	FreedByExit    int64
	RescuedDaemon  int64 // daemon-freed frames rescued before reallocation
	RescuedRelease int64 // release-freed frames rescued before reallocation
	Reallocated    int64 // allocations that destroyed a previous identity
	Allocations    int64 // total frame allocations
	AllocWaits     int64 // allocations that had to wait for free memory
	AllocWaitTime  sim.Time
	LocalAllocs    int64 // allocations satisfied from the owner's home node (nodes>1)
	RemoteAllocs   int64 // allocations stolen from another node (nodes>1)
	BalancerMoves  int64 // free frames migrated between nodes by the balancer
}

// Phys is the physical memory pool.
type Phys struct {
	sim        *sim.Sim
	frames     []Frame
	nodes      int
	regionSize int
	head, tail []FrameID // per-node free lists: head = next to allocate
	nfreeNode  []int     // free frames currently on each node's list
	nfree      int       // total free frames
	offlineIDs []FrameID // hot-unplugged frames, LIFO
	homes      []int     // owner id -> home node
	stats      Stats

	// alloc is a packed bitmap with one bit per frame, set while the
	// frame is allocated (neither free-listed nor offline). The paging
	// daemons' clock sweeps scan it word-at-a-time instead of walking
	// Frame structs; the frames themselves stay the source of truth
	// (the audit cross-checks the two).
	alloc []uint64

	waiters *sim.Waitq

	// NeedMemory, if non-nil, is invoked with a node index whenever
	// that node's free memory drops to or below LowWater or an
	// allocation has to wait. The paging daemons register their
	// wake-ups here.
	NeedMemory func(node int)

	// FreeChanged, if non-nil, is invoked after every change to the
	// total free count. The kernel uses it for the
	// threshold-notification shared-page variant (§3.1.1's unexplored
	// alternative).
	FreeChanged func(free int)

	// LowWater is the per-node free-frame count at or below which
	// NeedMemory fires.
	LowWater int

	// Events is the flight recorder for node-local/remote allocation
	// events; nil (or a single node) records nothing.
	Events *events.Recorder
}

// New creates a single-node pool of n frames, all initially free with
// no identity.
func New(s *sim.Sim, n int) *Phys { return NewSharded(s, n, 1) }

// NewSharded creates a pool of n frames split into nodes equal
// regions (the last node absorbs any remainder). nodes is clamped to
// [1, n].
func NewSharded(s *sim.Sim, n, nodes int) *Phys {
	if n <= 0 {
		panic("mem: pool must have at least one frame")
	}
	if nodes < 1 {
		nodes = 1
	}
	if nodes > n {
		nodes = n
	}
	p := &Phys{
		sim:        s,
		frames:     make([]Frame, n),
		nodes:      nodes,
		regionSize: n / nodes,
		head:       make([]FrameID, nodes),
		tail:       make([]FrameID, nodes),
		nfreeNode:  make([]int, nodes),
		alloc:      make([]uint64, (n+63)/64),
		waiters:    sim.NewWaitq("phys.alloc"),
	}
	for k := 0; k < nodes; k++ {
		p.head[k] = NoFrame
		p.tail[k] = NoFrame
	}
	for i := range p.frames {
		f := &p.frames[i]
		f.ID = FrameID(i)
		p.pushTail(f, FreedExit)
	}
	// Initial fill is not an interesting statistic.
	p.stats = Stats{}
	return p
}

// NumFrames returns the total number of physical frames.
func (p *Phys) NumFrames() int { return len(p.frames) }

// Nodes returns the number of memory nodes (1 = unsharded).
func (p *Phys) Nodes() int { return p.nodes }

// NodeOf returns the origin node of frame i.
func (p *Phys) NodeOf(i int) int {
	k := i / p.regionSize
	if k >= p.nodes {
		k = p.nodes - 1
	}
	return k
}

// NodeRange returns node k's frame region [base, limit).
func (p *Phys) NodeRange(k int) (base, limit int) {
	base = k * p.regionSize
	limit = base + p.regionSize
	if k == p.nodes-1 {
		limit = len(p.frames)
	}
	return base, limit
}

// FreeCount returns the total length of the free lists.
func (p *Phys) FreeCount() int { return p.nfree }

// FreeCountNode returns the length of node k's free list.
func (p *Phys) FreeCountNode(k int) int { return p.nfreeNode[k] }

// Frame returns the frame with the given id.
func (p *Phys) Frame(id FrameID) *Frame { return &p.frames[id] }

// Stats returns a snapshot of the counters.
func (p *Phys) Stats() Stats { return p.stats }

// SetHome records an owner's home node; allocations for that owner
// prefer the home node's free list. Unset owners default to node 0.
func (p *Phys) SetHome(ownerID, node int) {
	if node < 0 || node >= p.nodes {
		panic(fmt.Sprintf("mem: home node %d out of range", node))
	}
	for len(p.homes) <= ownerID {
		p.homes = append(p.homes, 0)
	}
	p.homes[ownerID] = node
}

// HomeOf returns the home node recorded for an owner id.
func (p *Phys) HomeOf(ownerID int) int {
	if ownerID >= 0 && ownerID < len(p.homes) {
		return p.homes[ownerID]
	}
	return 0
}

func (p *Phys) homeOf(o Owner) int {
	if p.nodes == 1 || o == nil {
		return 0
	}
	return p.HomeOf(o.OwnerID())
}

// FrameAllocated reports whether frame i is allocated (neither on a
// free list nor offline), from the packed bitmap.
func (p *Phys) FrameAllocated(i int) bool {
	return p.alloc[i>>6]&(1<<(uint(i)&63)) != 0
}

// NextAllocated returns the index of the first allocated frame at or
// after start, wrapping past the end of the pool, or -1 when no frame
// is allocated. The scan runs word-at-a-time over the packed bitmap.
//
//simvet:hot
func (p *Phys) NextAllocated(start int) int {
	w := start >> 6
	if word := p.alloc[w] &^ (1<<(uint(start)&63) - 1); word != 0 {
		return w<<6 + bits.TrailingZeros64(word)
	}
	for i := w + 1; i < len(p.alloc); i++ {
		if p.alloc[i] != 0 {
			return i<<6 + bits.TrailingZeros64(p.alloc[i])
		}
	}
	for i := 0; i <= w; i++ {
		if p.alloc[i] != 0 {
			return i<<6 + bits.TrailingZeros64(p.alloc[i])
		}
	}
	return -1
}

// NextAllocatedIn returns the first allocated frame at or after start
// within the region [base, limit), wrapping at limit back to base, or
// -1 when the region has no allocated frame. NextAllocated(start) is
// NextAllocatedIn(start, 0, NumFrames()). Per-node clock hands sweep
// their own region with this.
//
//simvet:hot
func (p *Phys) NextAllocatedIn(start, base, limit int) int {
	if i := p.nextAllocRange(start, limit); i >= 0 {
		return i
	}
	if start > base {
		return p.nextAllocRange(base, start)
	}
	return -1
}

// nextAllocRange returns the first allocated frame in [from, to), or
// -1. Word-at-a-time with partial-word masks at both ends.
//
//simvet:hot
func (p *Phys) nextAllocRange(from, to int) int {
	if from >= to {
		return -1
	}
	w := from >> 6
	last := (to - 1) >> 6
	word := p.alloc[w] &^ (1<<(uint(from)&63) - 1)
	for {
		if w == last {
			if tailBits := uint(to) & 63; tailBits != 0 {
				word &= 1<<tailBits - 1
			}
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w > last {
			return -1
		}
		word = p.alloc[w]
	}
}

func (p *Phys) pushTail(f *Frame, kind FreeKind) {
	p.pushTailOn(f, p.NodeOf(int(f.ID)), kind)
}

func (p *Phys) pushTailOn(f *Frame, node int, kind FreeKind) {
	p.alloc[f.ID>>6] &^= 1 << (uint(f.ID) & 63)
	f.freeKind = kind
	f.listNode = int32(node)
	f.prev = p.tail[node]
	f.next = NoFrame
	if p.tail[node] != NoFrame {
		p.frames[p.tail[node]].next = f.ID
	} else {
		p.head[node] = f.ID
	}
	p.tail[node] = f.ID
	p.nfreeNode[node]++
	p.nfree++
}

func (p *Phys) unlink(f *Frame) {
	node := int(f.listNode)
	p.alloc[f.ID>>6] |= 1 << (uint(f.ID) & 63)
	if f.prev != NoFrame {
		p.frames[f.prev].next = f.next
	} else {
		p.head[node] = f.next
	}
	if f.next != NoFrame {
		p.frames[f.next].prev = f.prev
	} else {
		p.tail[node] = f.prev
	}
	f.freeKind = FreedNone
	f.prev, f.next = NoFrame, NoFrame
	p.nfreeNode[node]--
	p.nfree--
}

// richestNode returns the node with the most free frames, excluding
// `exclude` (pass -1 to consider all); ties break to the lowest index.
// Returns -1 when every considered node is empty.
func (p *Phys) richestNode(exclude int) int {
	best, bestFree := -1, 0
	for k := 0; k < p.nodes; k++ {
		if k == exclude {
			continue
		}
		if p.nfreeNode[k] > bestFree {
			best, bestFree = k, p.nfreeNode[k]
		}
	}
	return best
}

// Alloc takes the oldest frame from the owner's home-node free list —
// stealing from the richest other node when the home list is empty —
// destroying the frame's old identity (notifying the previous owner).
// If no node has free frames the calling process blocks until memory
// is freed; the wait time is returned so the caller can account it as
// resource stall. proc may be nil only when free frames are known to
// exist (it panics otherwise).
func (p *Phys) Alloc(proc *sim.Proc, newOwner Owner, vpn int) (*Frame, sim.Time) {
	home := p.homeOf(newOwner)
	var waited sim.Time
	for p.nfree == 0 {
		if proc == nil {
			panic("mem: Alloc with nil proc would block")
		}
		p.stats.AllocWaits++
		if p.NeedMemory != nil {
			p.NeedMemory(home)
		}
		start := proc.Now()
		p.waiters.Wait(proc)
		waited += proc.Now() - start
	}
	p.stats.AllocWaitTime += waited
	node := home
	if p.nfreeNode[home] == 0 {
		node = p.richestNode(home)
	}
	f := &p.frames[p.head[node]]
	p.unlink(f)
	if f.Owner != nil {
		f.Owner.FrameInvalidated(f.VPN)
		p.stats.Reallocated++
	}
	f.Owner = newOwner
	f.VPN = vpn
	f.Dirty = false
	p.stats.Allocations++
	if p.nodes > 1 && newOwner != nil {
		if node == home {
			p.stats.LocalAllocs++
			p.Events.Emit(events.AllocLocal, newOwner.OwnerName(), "", vpn, int64(home), 0)
		} else {
			p.stats.RemoteAllocs++
			p.Events.Emit(events.AllocRemote, newOwner.OwnerName(), "", vpn, int64(home), int64(node))
		}
	}
	if p.nfreeNode[home] <= p.LowWater && p.NeedMemory != nil {
		p.NeedMemory(home)
	}
	if p.FreeChanged != nil {
		p.FreeChanged(p.nfree)
	}
	return f, waited
}

// TryAlloc allocates a frame only if one is free, without blocking.
// Used by the prefetch path, which must discard requests rather than
// steal memory when none is free (§3.1.2).
func (p *Phys) TryAlloc(newOwner Owner, vpn int) (*Frame, bool) {
	if p.nfree == 0 {
		return nil, false
	}
	f, _ := p.Alloc(nil, newOwner, vpn)
	return f, true
}

// Free places a frame at the tail of its origin node's free list,
// preserving its identity so it can be rescued. kind records who freed
// it.
func (p *Phys) Free(f *Frame, kind FreeKind) {
	if f.OnFreeList() {
		panic(fmt.Sprintf("mem: double free of frame %d", f.ID))
	}
	if f.offline {
		panic(fmt.Sprintf("mem: free of offline frame %d", f.ID))
	}
	p.pushTail(f, kind)
	switch kind {
	case FreedDaemon:
		p.stats.FreedByDaemon++
	case FreedRelease:
		p.stats.FreedByRelease++
	case FreedExit:
		p.stats.FreedByExit++
	}
	p.waiters.WakeOne()
	if p.FreeChanged != nil {
		p.FreeChanged(p.nfree)
	}
}

// Rescue removes a free-listed frame from its free list and returns it
// to its owner, recording the outcome. The caller must have verified
// that the identity (owner, vpn) still matches.
func (p *Phys) Rescue(f *Frame) {
	switch f.freeKind {
	case FreedDaemon:
		p.stats.RescuedDaemon++
	case FreedRelease:
		p.stats.RescuedRelease++
	case FreedExit:
		// teardown leftovers; not counted
	case FreedNone:
		panic(fmt.Sprintf("mem: rescue of non-free frame %d", f.ID))
	}
	p.unlink(f)
}

// DropIdentity clears a free-listed frame's identity without removing
// it from the free list (used when the owner tears down).
func (p *Phys) DropIdentity(f *Frame) {
	f.Owner = nil
	f.VPN = 0
	f.Dirty = false
}

// Migrate moves up to max free frames from node `from`'s list head to
// node `to`'s list tail, preserving identities and free kinds (a
// loaned frame stays rescuable). It returns how many frames moved.
// The total free count is unchanged, so no waiter or FreeChanged
// notification fires. Only the inter-node balancer calls this.
func (p *Phys) Migrate(from, to, max int) int {
	if from == to {
		return 0
	}
	moved := 0
	for moved < max && p.nfreeNode[from] > 0 {
		f := &p.frames[p.head[from]]
		kind := f.freeKind
		p.unlink(f)
		p.pushTailOn(f, to, kind)
		moved++
	}
	p.stats.BalancerMoves += int64(moved)
	return moved
}

// OfflineCount returns the number of hot-unplugged frames.
func (p *Phys) OfflineCount() int { return len(p.offlineIDs) }

// OfflineNode hot-unplugs up to n free frames from the given node's
// free list (a per-node unplug leaves the other nodes untouched); a
// negative node takes each frame from the richest node. Frames leave from the head of the
// free list (the oldest identities, which would be reallocated next
// anyway). Only free frames can go offline; the return value is how
// many actually did. Identities are destroyed, so pending rescues of
// those pages become hard faults — exactly the degradation a real
// memory-removal causes.
func (p *Phys) OfflineNode(node, n int) int {
	taken := 0
	for taken < n {
		k := node
		if k < 0 {
			k = p.richestNode(-1)
		}
		if k < 0 || p.nfreeNode[k] == 0 {
			break
		}
		f := &p.frames[p.head[k]]
		p.unlink(f)
		if f.Owner != nil {
			f.Owner.FrameInvalidated(f.VPN)
			f.Owner = nil
		}
		f.VPN = 0
		f.Dirty = false
		f.offline = true
		p.alloc[f.ID>>6] &^= 1 << (uint(f.ID) & 63)
		p.offlineIDs = append(p.offlineIDs, f.ID)
		taken++
	}
	if taken > 0 {
		if p.NeedMemory != nil {
			for k := 0; k < p.nodes; k++ {
				if p.nfreeNode[k] <= p.LowWater {
					p.NeedMemory(k)
				}
			}
		}
		if p.FreeChanged != nil {
			p.FreeChanged(p.nfree)
		}
	}
	return taken
}

// OnlineNode brings back up to n hot-unplugged frames whose origin is
// the given node (a per-node replug); a negative node brings back any. They return
// identity-free at the tail of their origin node's free list, waking
// allocation waiters. It returns how many came back.
func (p *Phys) OnlineNode(node, n int) int {
	taken := 0
	for taken < n && len(p.offlineIDs) > 0 {
		idx := len(p.offlineIDs) - 1
		if node >= 0 {
			for idx >= 0 && p.NodeOf(int(p.offlineIDs[idx])) != node {
				idx--
			}
			if idx < 0 {
				break
			}
		}
		id := p.offlineIDs[idx]
		p.offlineIDs = append(p.offlineIDs[:idx], p.offlineIDs[idx+1:]...)
		f := &p.frames[id]
		// Re-admission must not trust that unplug-time teardown left the
		// frame clean: the PTEs are the source of truth, so any identity
		// or allocated-bitmap bit still attached to an offline frame is
		// drift, and admitting it would let a stale rescue resurrect a
		// dead mapping. Invalidate and scrub before the frame rejoins
		// the pool (the hot-unplug/replug property test cross-checks
		// this against a linear scan).
		if f.Owner != nil {
			f.Owner.FrameInvalidated(f.VPN)
			f.Owner = nil
			f.VPN = 0
			f.Dirty = false
		}
		p.alloc[id>>6] &^= 1 << (uint(id) & 63)
		f.offline = false
		p.pushTail(f, FreedExit)
		p.waiters.WakeOne()
		taken++
	}
	if taken > 0 && p.FreeChanged != nil {
		p.FreeChanged(p.nfree)
	}
	return taken
}

// ValidateFreeLists walks every node's free list and cross-checks it
// against the frame structs, the per-node counters, and the allocated
// bitmap: every listed frame must be free (not offline), recorded on
// this node, correctly back-linked, and clear in the bitmap; the walk
// length must equal the node's counter and the counters must sum to
// the total. kernel.Audit runs this as the per-node invariant pass.
func (p *Phys) ValidateFreeLists() error {
	total := 0
	for k := 0; k < p.nodes; k++ {
		count := 0
		prev := NoFrame
		for id := p.head[k]; id != NoFrame; id = p.frames[id].next {
			f := &p.frames[id]
			if !f.OnFreeList() {
				return fmt.Errorf("mem: node %d free list holds non-free frame %d", k, id)
			}
			if f.offline {
				return fmt.Errorf("mem: node %d free list holds offline frame %d", k, id)
			}
			if int(f.listNode) != k {
				return fmt.Errorf("mem: frame %d on node %d's list but listNode says %d", id, k, f.listNode)
			}
			if f.prev != prev {
				return fmt.Errorf("mem: frame %d back-link %d != %d", id, f.prev, prev)
			}
			if p.FrameAllocated(int(id)) {
				return fmt.Errorf("mem: free frame %d set in allocated bitmap", id)
			}
			prev = id
			count++
			if count > p.nfree {
				return fmt.Errorf("mem: node %d free list longer than total free count %d (cycle?)", k, p.nfree)
			}
		}
		if p.tail[k] != prev {
			return fmt.Errorf("mem: node %d tail %d != last walked frame %d", k, p.tail[k], prev)
		}
		if count != p.nfreeNode[k] {
			return fmt.Errorf("mem: node %d free count %d != %d listed frames", k, p.nfreeNode[k], count)
		}
		total += count
	}
	if total != p.nfree {
		return fmt.Errorf("mem: per-node free counts sum to %d, total says %d", total, p.nfree)
	}
	return nil
}
