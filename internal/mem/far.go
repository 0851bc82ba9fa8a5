package mem

import "fmt"

// FarTier is an optional CXL-like far-memory pool between DRAM and
// swap: byte-addressable, so a demoted page keeps its contents and a
// re-fault costs a fixed latency instead of a disk positioning cost.
// Like Phys it is split into node-local regions so demotion stays on
// the faulting process's home node; unlike Phys it never blocks — a
// full tier makes the caller fall back to swap, mirroring how the
// prefetch path discards rather than steals (§3.1.2).
//
// Slots have no rescue semantics: a promoted slot's identity is gone
// the moment it is freed. The exactly-one-tier audit invariant depends
// on that — a page must never be simultaneously far-resident and
// rescuable from the DRAM free list.
type FarTier struct {
	regions
	slots      []FarSlot
	free       [][]FarSlotID // per-node free stacks (LIFO)
	offlineIDs []FarSlotID   // hot-unplugged slots, LIFO
	nfree      int
	stats      FarStats
}

// FarSlotID identifies one far-tier page slot. NoFarSlot means "none".
type FarSlotID int32

// NoFarSlot is the sentinel for "no far slot".
const NoFarSlot FarSlotID = -1

// FarSlot is one far-tier page slot.
type FarSlot struct {
	ID    FarSlotID
	Owner Owner // nil while the slot is free or offline
	VPN   int
	Dirty bool

	used    bool
	offline bool
}

// InUse reports whether the slot holds a demoted page.
func (s *FarSlot) InUse() bool { return s.used }

// IsOffline reports whether the slot is hot-unplugged.
func (s *FarSlot) IsOffline() bool { return s.offline }

// FarStats counts far-tier traffic.
type FarStats struct {
	Demotions  int64 // pages moved DRAM -> far
	Promotions int64 // pages moved far -> DRAM
	DemoteFull int64 // demotions refused because the tier was full
}

// NewFarTier creates a far tier of n slots split into nodes regions
// (the last node absorbs any remainder), all initially free. nodes is
// clamped to [1, n].
func NewFarTier(n, nodes int) *FarTier {
	if n <= 0 {
		panic("mem: far tier must have at least one slot")
	}
	r := newRegions(n, nodes)
	t := &FarTier{
		regions: r,
		slots:   make([]FarSlot, n),
		free:    make([][]FarSlotID, r.nodes),
	}
	for i := range t.slots {
		t.slots[i].ID = FarSlotID(i)
	}
	// Fill each node's stack in descending order so the first
	// allocation takes the region's lowest slot.
	for k := r.nodes - 1; k >= 0; k-- {
		base, limit := t.NodeRange(k)
		for i := limit - 1; i >= base; i-- {
			t.free[k] = append(t.free[k], FarSlotID(i))
		}
		t.nfree += limit - base
	}
	return t
}

// FreeCount returns the number of free slots.
func (t *FarTier) FreeCount() int { return t.nfree }

// UsedCount returns the number of slots holding demoted pages.
func (t *FarTier) UsedCount() int {
	return len(t.slots) - t.nfree - len(t.offlineIDs)
}

// OfflineCount returns the number of hot-unplugged slots.
func (t *FarTier) OfflineCount() int { return len(t.offlineIDs) }

// NumSlots returns the number of slots, offline ones included; slot
// ids run from 0 to NumSlots-1.
func (t *FarTier) NumSlots() int { return len(t.slots) }

// Slot returns the slot with the given id.
func (t *FarTier) Slot(id FarSlotID) *FarSlot { return &t.slots[id] }

// Stats returns a snapshot of the counters.
func (t *FarTier) Stats() FarStats {
	if t == nil {
		return FarStats{}
	}
	return t.stats
}

// richestNode returns the node with the most free slots; ties break
// to the lowest index. The tier must have a free slot.
func (t *FarTier) richestNode() int {
	best := 0
	for k := 1; k < t.nodes; k++ {
		if len(t.free[k]) > len(t.free[best]) {
			best = k
		}
	}
	return best
}

// TryAlloc takes a free slot for a page being demoted, preferring the
// home node and falling back to the richest other node. It never
// blocks: a full tier returns false and the caller demotes to swap
// instead.
func (t *FarTier) TryAlloc(home int, owner Owner, vpn int) (*FarSlot, bool) {
	if t == nil || t.nfree == 0 {
		if t != nil {
			t.stats.DemoteFull++
		}
		return nil, false
	}
	if home < 0 || home >= t.nodes {
		home = 0
	}
	node := home
	if len(t.free[node]) == 0 {
		node = t.richestNode()
	}
	stack := t.free[node]
	id := stack[len(stack)-1]
	t.free[node] = stack[:len(stack)-1]
	t.nfree--
	s := &t.slots[id]
	s.Owner = owner
	s.VPN = vpn
	s.Dirty = false
	s.used = true
	t.stats.Demotions++
	return s, true
}

// Free returns a slot to its origin node's stack, destroying its
// identity (far slots are never rescued).
func (t *FarTier) Free(s *FarSlot) {
	if !s.used {
		panic(fmt.Sprintf("mem: double free of far slot %d", s.ID))
	}
	if s.offline {
		panic(fmt.Sprintf("mem: free of offline far slot %d", s.ID))
	}
	s.Owner = nil
	s.VPN = 0
	s.Dirty = false
	s.used = false
	node := t.NodeOf(int(s.ID))
	t.free[node] = append(t.free[node], s.ID)
	t.nfree++
	t.stats.Promotions++
}

// Offline hot-unplugs up to n free slots (pages already demoted stay
// where they are, as on a real device being drained). Returns how many
// slots actually went offline.
func (t *FarTier) Offline(n int) int {
	taken := 0
	for taken < n && t.nfree > 0 {
		// Drain the richest node first so a partial unplug stays
		// balanced.
		best := t.richestNode()
		stack := t.free[best]
		id := stack[len(stack)-1]
		t.free[best] = stack[:len(stack)-1]
		t.nfree--
		s := &t.slots[id]
		s.offline = true
		t.offlineIDs = append(t.offlineIDs, id)
		taken++
	}
	return taken
}

// Online brings up to n hot-unplugged slots back to their origin
// node's free stack. Returns how many came back.
func (t *FarTier) Online(n int) int {
	taken := 0
	for taken < n && len(t.offlineIDs) > 0 {
		id := t.offlineIDs[len(t.offlineIDs)-1]
		t.offlineIDs = t.offlineIDs[:len(t.offlineIDs)-1]
		s := &t.slots[id]
		s.offline = false
		node := t.NodeOf(int(id))
		t.free[node] = append(t.free[node], id)
		t.nfree++
		taken++
	}
	return taken
}

// Validate cross-checks the free stacks, offline list and slot flags:
// every free-stack entry must be an unused, online slot with no
// identity; used + free + offline must equal the capacity.
// kernel.Audit runs this as the far-tier invariant pass.
func (t *FarTier) Validate() error {
	if t == nil {
		return nil
	}
	total := 0
	for k := 0; k < t.nodes; k++ {
		for _, id := range t.free[k] {
			s := &t.slots[id]
			if s.used {
				return fmt.Errorf("mem: far free stack %d holds in-use slot %d", k, id)
			}
			if s.offline {
				return fmt.Errorf("mem: far free stack %d holds offline slot %d", k, id)
			}
			if s.Owner != nil {
				return fmt.Errorf("mem: free far slot %d kept identity %s:%d", id, s.Owner.OwnerName(), s.VPN)
			}
			total++
		}
	}
	if total != t.nfree {
		return fmt.Errorf("mem: far free stacks hold %d slots, counter says %d", total, t.nfree)
	}
	for _, id := range t.offlineIDs {
		if !t.slots[id].offline {
			return fmt.Errorf("mem: far offline list holds online slot %d", id)
		}
	}
	used := 0
	for i := range t.slots {
		s := &t.slots[i]
		if s.used {
			if s.offline {
				return fmt.Errorf("mem: far slot %d both in use and offline", i)
			}
			if s.Owner == nil {
				return fmt.Errorf("mem: in-use far slot %d has no owner", i)
			}
			used++
		}
	}
	if used+t.nfree+len(t.offlineIDs) != len(t.slots) {
		return fmt.Errorf("mem: far slots used %d + free %d + offline %d != capacity %d",
			used, t.nfree, len(t.offlineIDs), len(t.slots))
	}
	return nil
}
