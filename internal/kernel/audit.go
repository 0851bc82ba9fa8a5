package kernel

import (
	"fmt"

	"memhogs/internal/mem"
)

// Audit cross-checks the VM invariants between the physical frame
// pool and every address space's page table. It is cheap enough to
// run continuously (driver.RunConfig.AuditEvery) and is valid at any
// event-loop boundary, not just end-of-run: pages with a page-in in
// flight and hot-unplugged frames are accounted explicitly instead of
// assumed away. It catches double frees, leaked frames, stale
// identities, resident-count drift, and Busy bits without a backing
// page-in.
//
// Invariants:
//
//  1. Every frame is free, offline, or owned by exactly one virtual
//     page (resident, rescuable, or with a page-in in transit).
//  2. An address space's Resident count equals its number of Present
//     PTEs.
//  3. A Present PTE's frame points back at (AS, vpn) and is not on
//     the free list.
//  4. A non-present PTE that still names a frame (rescuable) points
//     at a free-listed frame with the matching identity.
//  5. A Busy PTE is not Present, names no frame yet, and has a
//     page-in registered in flight; the in-flight registry has no
//     entries beyond the Busy PTEs.
//  6. Free + offline + resident + in-transit frames = total frames.
//  7. Every page is resident in exactly one tier: a far-resident PTE
//     is not Present, not Busy, names no DRAM frame (not even a
//     rescuable one), and points at an in-use far slot carrying its
//     identity; no two PTEs share a slot; per-AS FarResident counts
//     reconcile; used far slots = far-resident PTEs + slots kept by
//     exited owners; and the far tier's own free/offline structures
//     validate.
//
// Audit allocates nothing on a clean system once it has run: its
// working memory (auditScratch) is kept across audits.
func (sys *System) Audit() error {
	phys := sys.Phys
	sc := &sys.audit
	epoch := sc.begin(sys)

	// Pass 0: per-node free-list invariants straight from the
	// allocator — list structure, loan bookkeeping (listNode), per-node
	// counters, and free-vs-bitmap agreement for every node region.
	if err := phys.ValidateFreeLists(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}

	// Pass 1: per-frame checks, collecting the identity of every
	// allocated (non-free, non-offline) frame.
	free, offline := 0, 0
	for i := 0; i < phys.NumFrames(); i++ {
		f := phys.Frame(mem.FrameID(i))
		if got, want := phys.FrameAllocated(i), !f.OnFreeList() && !f.IsOffline(); got != want {
			return fmt.Errorf("audit: frame %d allocated bitmap says %v but frame state says %v",
				f.ID, got, want)
		}
		if f.IsOffline() {
			if f.OnFreeList() {
				return fmt.Errorf("audit: offline frame %d still on the free list", f.ID)
			}
			if f.Owner != nil {
				return fmt.Errorf("audit: offline frame %d retains owner %s:%d",
					f.ID, f.Owner.OwnerName(), f.VPN)
			}
			offline++
			continue
		}
		if f.OnFreeList() {
			free++
			continue
		}
		if f.Owner == nil {
			return fmt.Errorf("audit: frame %d neither free nor owned", f.ID)
		}
		if c := sc.page(sys, f.Owner, f.VPN); c != nil {
			if c.epoch == epoch {
				return fmt.Errorf("audit: page %s:%d owned by frames %d and %d",
					f.Owner.OwnerName(), f.VPN, c.frame, f.ID)
			}
			*c = pageClaim{epoch: epoch, frame: f.ID}
		}
	}
	if free != phys.FreeCount() {
		return fmt.Errorf("audit: free-list count %d != %d frames marked free",
			phys.FreeCount(), free)
	}
	if offline != phys.OfflineCount() {
		return fmt.Errorf("audit: offline count %d != %d frames marked offline",
			phys.OfflineCount(), offline)
	}

	// Pass 2: per-address-space checks. matched marks every allocated
	// frame claimed by a PTE — present pages claim their mapped
	// frame, Busy pages claim the frame allocated for their page-in
	// (which carries their identity but is not yet wired into the
	// PTE).
	residentTotal, inTransit, farTotal := 0, 0, 0
	for pi, p := range sys.procs {
		as := p.AS
		resident, busy, far := 0, 0, 0
		for vpn := 0; vpn < as.NumPages(); vpn++ {
			pte := as.PTE(vpn)
			if pte.FarSlot != mem.NoFarSlot {
				// Exactly one tier: a far-resident page holds nothing
				// in DRAM — no mapping, no in-flight page-in, no
				// rescuable frame.
				if pte.Present {
					return fmt.Errorf("audit: %s:%d resident in both DRAM and far tier", p.Name, vpn)
				}
				if pte.Busy {
					return fmt.Errorf("audit: %s:%d busy while far-resident", p.Name, vpn)
				}
				if pte.Frame != mem.NoFrame {
					return fmt.Errorf("audit: %s:%d far-resident but still names frame %d",
						p.Name, vpn, pte.Frame)
				}
				if sys.Far == nil {
					return fmt.Errorf("audit: %s:%d names far slot %d but the machine has no far tier",
						p.Name, vpn, pte.FarSlot)
				}
				s := sys.Far.Slot(pte.FarSlot)
				if !s.InUse() {
					return fmt.Errorf("audit: %s:%d names free far slot %d", p.Name, vpn, s.ID)
				}
				if s.Owner == nil || s.Owner.OwnerName() != p.Name || s.VPN != vpn {
					return fmt.Errorf("audit: %s:%d far slot %d identity mismatch (%v:%d)",
						p.Name, vpn, s.ID, s.Owner, s.VPN)
				}
				if c := &sc.slots[s.ID]; c.epoch == epoch {
					prev := fmt.Sprintf("%s:%d", sys.procs[c.proc].Name, c.vpn)
					return fmt.Errorf("audit: far slot %d claimed by both %s and %s:%d",
						s.ID, prev, p.Name, vpn)
				}
				sc.slots[s.ID] = slotClaim{epoch: epoch, proc: int32(pi), vpn: int32(vpn)}
				far++
			}
			switch {
			case pte.Busy:
				busy++
				if pte.Present {
					return fmt.Errorf("audit: %s:%d busy and present", p.Name, vpn)
				}
				if pte.Frame != mem.NoFrame {
					return fmt.Errorf("audit: %s:%d busy but already names frame %d",
						p.Name, vpn, pte.Frame)
				}
				if !as.PageInInFlight(vpn) {
					return fmt.Errorf("audit: %s:%d busy without an in-flight page-in",
						p.Name, vpn)
				}
				// The page-in's frame may not exist yet (the fault may
				// still be waiting for free memory); once allocated it
				// carries our identity.
				if c := sc.pages[pi][vpn]; c.epoch == epoch {
					sc.matched[c.frame] = epoch
					inTransit++
				}
			case pte.Present:
				resident++
				if pte.Frame == mem.NoFrame {
					return fmt.Errorf("audit: %s:%d present without frame", p.Name, vpn)
				}
				f := phys.Frame(pte.Frame)
				if f.OnFreeList() {
					return fmt.Errorf("audit: %s:%d present but frame %d is free",
						p.Name, vpn, f.ID)
				}
				if f.IsOffline() {
					return fmt.Errorf("audit: %s:%d present but frame %d is offline",
						p.Name, vpn, f.ID)
				}
				if f.Owner == nil || f.Owner.OwnerName() != p.Name || f.VPN != vpn {
					return fmt.Errorf("audit: %s:%d frame %d identity mismatch (%v:%d)",
						p.Name, vpn, f.ID, f.Owner, f.VPN)
				}
				sc.matched[f.ID] = epoch
			case pte.Frame != mem.NoFrame:
				// Rescuable: the frame must be free-listed with our
				// identity (otherwise FrameInvalidated should have
				// cleared the PTE).
				f := phys.Frame(pte.Frame)
				if !f.OnFreeList() {
					return fmt.Errorf("audit: %s:%d rescuable frame %d not on free list",
						p.Name, vpn, f.ID)
				}
				if f.Owner == nil || f.Owner.OwnerName() != p.Name || f.VPN != vpn {
					return fmt.Errorf("audit: %s:%d stale rescue identity on frame %d",
						p.Name, vpn, f.ID)
				}
			}
			if pte.Valid && !pte.Present {
				return fmt.Errorf("audit: %s:%d valid but not present", p.Name, vpn)
			}
			// The packed residency/validity bitmaps are the fast-path
			// mirror of the PTE array; they must never drift from it.
			if as.ResidentBit(vpn) != pte.Present {
				return fmt.Errorf("audit: %s:%d residency bitmap %v but PTE present %v",
					p.Name, vpn, as.ResidentBit(vpn), pte.Present)
			}
			if as.ValidBit(vpn) != pte.Valid {
				return fmt.Errorf("audit: %s:%d validity bitmap %v but PTE valid %v",
					p.Name, vpn, as.ValidBit(vpn), pte.Valid)
			}
		}
		if resident != as.Resident {
			return fmt.Errorf("audit: %s resident count %d != %d present PTEs",
				p.Name, as.Resident, resident)
		}
		if busy != as.InFlightPageIns() {
			return fmt.Errorf("audit: %s has %d busy PTEs but %d in-flight page-ins",
				p.Name, busy, as.InFlightPageIns())
		}
		if far != as.FarResident {
			return fmt.Errorf("audit: %s far-resident count %d != %d far-slot PTEs",
				p.Name, as.FarResident, far)
		}
		residentTotal += resident
		farTotal += far
	}

	// Pass 2b: far-tier conservation. Every in-use slot not claimed by
	// a PTE would be a leak: processes never exit mid-audit in this
	// simulator, so used slots and far-resident PTEs must agree
	// exactly, and the tier's internal free/offline bookkeeping must
	// validate.
	if sys.Far != nil {
		if err := sys.Far.Validate(); err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		if used := sys.Far.UsedCount(); used != farTotal {
			return fmt.Errorf("audit: far tier holds %d pages but %d PTEs are far-resident",
				used, farTotal)
		}
	} else if farTotal != 0 {
		return fmt.Errorf("audit: %d far-resident PTEs without a far tier", farTotal)
	}

	// Pass 3: no allocated frame may be unclaimed (a leak), and the
	// frame population must conserve.
	for i := 0; i < phys.NumFrames(); i++ {
		f := phys.Frame(mem.FrameID(i))
		if f.IsOffline() || f.OnFreeList() {
			continue
		}
		if sc.matched[f.ID] != epoch {
			return fmt.Errorf("audit: frame %d (%s:%d) allocated but referenced by no PTE",
				f.ID, f.Owner.OwnerName(), f.VPN)
		}
	}
	if free+offline+residentTotal+inTransit != phys.NumFrames() {
		return fmt.Errorf("audit: conservation failed: free %d + offline %d + resident %d + in-transit %d != %d frames",
			free, offline, residentTotal, inTransit, phys.NumFrames())
	}
	return nil
}

// auditScratch is Audit's working memory, indexed by dense ids instead
// of keyed maps, and kept across audits. An entry counts only when it
// carries the current audit's epoch, so nothing is cleared between
// audits.
type auditScratch struct {
	epoch   uint32
	pages   [][]pageClaim // per process (OwnerID), per vpn: the frame carrying that identity
	slots   []slotClaim   // per far slot: the far-resident PTE naming it
	matched []uint32      // per frame: the epoch of the audit that found a PTE claiming it
}

// pageClaim records that an allocated frame carries a page's identity.
type pageClaim struct {
	epoch uint32
	frame mem.FrameID
}

// slotClaim records that a far-resident PTE names a far slot.
type slotClaim struct {
	epoch     uint32
	proc, vpn int32
}

// begin sizes the scratch space for sys's frames, far slots and
// processes, and returns the new audit's epoch.
func (sc *auditScratch) begin(sys *System) uint32 {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale entries could match again
		*sc = auditScratch{epoch: 1}
	}
	if n := sys.Phys.NumFrames(); len(sc.matched) != n {
		sc.matched = make([]uint32, n)
	}
	if sys.Far != nil && len(sc.slots) != sys.Far.NumSlots() {
		sc.slots = make([]slotClaim, sys.Far.NumSlots())
	}
	for len(sc.pages) < len(sys.procs) {
		sc.pages = append(sc.pages, make([]pageClaim, sys.procs[len(sc.pages)].AS.NumPages()))
	}
	return sc.epoch
}

// page returns the claim entry of owner's page vpn, or nil when owner
// is not the address space of one of sys's processes or vpn is outside
// it (such a frame is left to the unclaimed-frame check).
func (sc *auditScratch) page(sys *System, owner mem.Owner, vpn int) *pageClaim {
	id := owner.OwnerID()
	if id < 0 || id >= len(sys.procs) || mem.Owner(sys.procs[id].AS) != owner {
		return nil
	}
	if claims := sc.pages[id]; vpn >= 0 && vpn < len(claims) {
		return &claims[vpn]
	}
	return nil
}
