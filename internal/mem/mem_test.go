package mem

import (
	"testing"
	"testing/quick"

	"memhogs/internal/sim"
)

type fakeOwner struct {
	name        string
	id          int
	invalidated []int
}

func (o *fakeOwner) FrameInvalidated(vpn int) { o.invalidated = append(o.invalidated, vpn) }
func (o *fakeOwner) OwnerName() string        { return o.name }
func (o *fakeOwner) OwnerID() int             { return o.id }

func TestAllFramesInitiallyFree(t *testing.T) {
	s := sim.New()
	p := New(s, 16)
	if p.FreeCount() != 16 {
		t.Fatalf("FreeCount = %d, want 16", p.FreeCount())
	}
	if p.NumFrames() != 16 {
		t.Fatalf("NumFrames = %d, want 16", p.NumFrames())
	}
}

func TestAllocFIFOFromHead(t *testing.T) {
	s := sim.New()
	p := New(s, 4)
	o := &fakeOwner{name: "o"}
	f0, _ := p.Alloc(nil, o, 0)
	f1, _ := p.Alloc(nil, o, 1)
	if f0.ID != 0 || f1.ID != 1 {
		t.Fatalf("allocation order %d,%d; want 0,1", f0.ID, f1.ID)
	}
	// Free f0, then f1: they go to the tail, so the next alloc takes
	// frame 2 (still at the head), not the just-freed ones.
	p.Free(f0, FreedRelease)
	f2, _ := p.Alloc(nil, o, 2)
	if f2.ID != 2 {
		t.Fatalf("expected frame 2 from head, got %d", f2.ID)
	}
}

func TestFreePreservesIdentityUntilRealloc(t *testing.T) {
	s := sim.New()
	p := New(s, 2)
	o := &fakeOwner{name: "o"}
	f, _ := p.Alloc(nil, o, 42)
	p.Free(f, FreedDaemon)
	if f.Owner != o || f.VPN != 42 {
		t.Fatal("identity lost on free")
	}
	// Drain the other free frame, then realloc destroys the identity.
	p.Alloc(nil, o, 1)
	f2, _ := p.Alloc(nil, o, 99)
	if f2 != f {
		t.Fatalf("expected reallocation of frame %d", f.ID)
	}
	if len(o.invalidated) != 1 || o.invalidated[0] != 42 {
		t.Fatalf("owner not notified of invalidation: %v", o.invalidated)
	}
}

func TestRescueOutcomeCounting(t *testing.T) {
	s := sim.New()
	p := New(s, 4)
	o := &fakeOwner{name: "o"}
	fd, _ := p.Alloc(nil, o, 1)
	fr, _ := p.Alloc(nil, o, 2)
	p.Free(fd, FreedDaemon)
	p.Free(fr, FreedRelease)
	p.Rescue(fd)
	p.Rescue(fr)
	st := p.Stats()
	if st.RescuedDaemon != 1 || st.RescuedRelease != 1 {
		t.Fatalf("rescue stats = %+v", st)
	}
	if st.FreedByDaemon != 1 || st.FreedByRelease != 1 {
		t.Fatalf("freed stats = %+v", st)
	}
	if fd.OnFreeList() || fr.OnFreeList() {
		t.Fatal("rescued frames still on free list")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	s := sim.New()
	p := New(s, 2)
	o := &fakeOwner{name: "o"}
	f, _ := p.Alloc(nil, o, 0)
	p.Free(f, FreedRelease)
	p.Free(f, FreedRelease)
}

func TestAllocBlocksUntilFree(t *testing.T) {
	s := sim.New()
	p := New(s, 1)
	o := &fakeOwner{name: "o"}
	f, _ := p.Alloc(nil, o, 0)

	var gotAt sim.Time
	var waited sim.Time
	s.Spawn("waiter", func(proc *sim.Proc) {
		_, w := p.Alloc(proc, o, 1)
		gotAt = proc.Now()
		waited = w
	})
	s.At(5*sim.Millisecond, func() { p.Free(f, FreedRelease) })
	s.Run(0)
	if gotAt != 5*sim.Millisecond {
		t.Fatalf("alloc completed at %v, want 5ms", gotAt)
	}
	if waited != 5*sim.Millisecond {
		t.Fatalf("reported wait %v, want 5ms", waited)
	}
	if p.Stats().AllocWaits != 1 {
		t.Fatalf("AllocWaits = %d, want 1", p.Stats().AllocWaits)
	}
}

func TestNeedMemoryFiresAtLowWater(t *testing.T) {
	s := sim.New()
	p := New(s, 4)
	p.LowWater = 2
	kicks := 0
	p.NeedMemory = func(int) { kicks++ }
	o := &fakeOwner{name: "o"}
	p.Alloc(nil, o, 0) // free 3 > 2: no kick
	if kicks != 0 {
		t.Fatalf("kicked too early: %d", kicks)
	}
	p.Alloc(nil, o, 1) // free 2 <= 2: kick
	if kicks != 1 {
		t.Fatalf("kicks = %d, want 1", kicks)
	}
}

func TestTryAllocDoesNotBlock(t *testing.T) {
	s := sim.New()
	p := New(s, 1)
	o := &fakeOwner{name: "o"}
	if _, ok := p.TryAlloc(o, 0); !ok {
		t.Fatal("TryAlloc failed with a free frame")
	}
	if _, ok := p.TryAlloc(o, 1); ok {
		t.Fatal("TryAlloc succeeded with no free frames")
	}
}

// TestFreeListInvariant property-checks that any sequence of
// alloc/free/rescue operations preserves the free-list invariants:
// FreeCount matches the number of frames marked free, every resident
// frame is reachable by its owner, and no frame is lost.
func TestFreeListInvariant(t *testing.T) {
	o := &fakeOwner{name: "o"}
	check := func(ops []uint8) bool {
		s := sim.New()
		p := New(s, 8)
		var held []*Frame
		for _, op := range ops {
			switch op % 3 {
			case 0: // alloc
				if f, ok := p.TryAlloc(o, int(op)); ok {
					held = append(held, f)
				}
			case 1: // free
				if len(held) > 0 {
					f := held[len(held)-1]
					held = held[:len(held)-1]
					p.Free(f, FreedRelease)
				}
			case 2: // rescue the most recently freed frame, if any
				var newest *Frame
				for i := 0; i < p.NumFrames(); i++ {
					f := p.Frame(FrameID(i))
					if f.OnFreeList() && f.Kind() == FreedRelease {
						newest = f
					}
				}
				if newest != nil {
					p.Rescue(newest)
					held = append(held, newest)
				}
			}
		}
		// Invariant: held + free = all frames, and the free-list count
		// matches the per-frame flags.
		freeFlags := 0
		for i := 0; i < p.NumFrames(); i++ {
			if p.Frame(FrameID(i)).OnFreeList() {
				freeFlags++
			}
		}
		return freeFlags == p.FreeCount() && len(held)+p.FreeCount() == p.NumFrames()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOfflineOnlineRoundTrip(t *testing.T) {
	s := sim.New()
	p := New(s, 16)
	if got := p.OfflineNode(-1, 4); got != 4 {
		t.Fatalf("Offline(4) = %d", got)
	}
	if p.FreeCount() != 12 || p.OfflineCount() != 4 {
		t.Fatalf("free %d offline %d, want 12/4", p.FreeCount(), p.OfflineCount())
	}
	offline := 0
	for i := 0; i < p.NumFrames(); i++ {
		f := p.Frame(FrameID(i))
		if f.IsOffline() {
			offline++
			if f.OnFreeList() {
				t.Fatalf("offline frame %d still on free list", f.ID)
			}
			if f.Owner != nil {
				t.Fatalf("offline frame %d retains an owner", f.ID)
			}
		}
	}
	if offline != 4 {
		t.Fatalf("%d frames flagged offline, want 4", offline)
	}
	if got := p.OnlineNode(-1, 4); got != 4 {
		t.Fatalf("Online(4) = %d", got)
	}
	if p.FreeCount() != 16 || p.OfflineCount() != 0 {
		t.Fatalf("after online: free %d offline %d, want 16/0", p.FreeCount(), p.OfflineCount())
	}
}

func TestOfflineLimitedByFreeFrames(t *testing.T) {
	s := sim.New()
	p := New(s, 4)
	o := &fakeOwner{name: "o"}
	p.Alloc(nil, o, 0)
	p.Alloc(nil, o, 1)
	p.Alloc(nil, o, 2)
	if got := p.OfflineNode(-1, 10); got != 1 {
		t.Fatalf("Offline(10) with one free frame = %d, want 1", got)
	}
	// Bringing back more than was taken returns only what is offline.
	if got := p.OnlineNode(-1, 10); got != 1 {
		t.Fatalf("Online(10) = %d, want 1", got)
	}
}

func TestOfflineDestroysIdentity(t *testing.T) {
	s := sim.New()
	p := New(s, 2)
	o := &fakeOwner{name: "o"}
	f, _ := p.Alloc(nil, o, 42)
	p.Free(f, FreedDaemon) // rescuable: identity retained on the free list
	p.Alloc(nil, o, 1)     // consume the other frame so f is next
	if got := p.OfflineNode(-1, 1); got != 1 {
		t.Fatalf("Offline(1) = %d", got)
	}
	if !f.IsOffline() {
		t.Fatal("freed frame not taken offline")
	}
	if len(o.invalidated) != 1 || o.invalidated[0] != 42 {
		t.Fatalf("owner not told its rescuable page died: %v", o.invalidated)
	}
}

func TestOnlineWakesBlockedAllocator(t *testing.T) {
	s := sim.New()
	p := New(s, 2)
	o := &fakeOwner{name: "o"}
	p.OfflineNode(-1, 2)

	var gotAt sim.Time
	s.Spawn("waiter", func(proc *sim.Proc) {
		p.Alloc(proc, o, 0)
		gotAt = proc.Now()
	})
	s.At(5*sim.Millisecond, func() { p.OnlineNode(-1, 1) })
	s.Run(0)
	if gotAt != 5*sim.Millisecond {
		t.Fatalf("alloc completed at %v, want 5ms (hot-plug wake)", gotAt)
	}
}

func TestFreeOfflineFramePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("freeing an offline frame did not panic")
		}
	}()
	s := sim.New()
	p := New(s, 1)
	p.OfflineNode(-1, 1)
	p.Free(p.Frame(0), FreedRelease)
}

func TestOfflineKicksDaemonAtLowWater(t *testing.T) {
	s := sim.New()
	p := New(s, 8)
	p.LowWater = 4
	kicks := 0
	p.NeedMemory = func(int) { kicks++ }
	p.OfflineNode(-1, 3) // free 5 > 4: no kick
	if kicks != 0 {
		t.Fatalf("kicked too early: %d", kicks)
	}
	p.OfflineNode(-1, 1) // free 4 <= 4: kick
	if kicks != 1 {
		t.Fatalf("kicks = %d, want 1", kicks)
	}
}

func TestFreeKindString(t *testing.T) {
	for k, want := range map[FreeKind]string{
		FreedNone: "none", FreedDaemon: "daemon", FreedRelease: "release", FreedExit: "exit",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// refNextAllocated is a straight per-frame reference for the bitmap
// scan: first frame at or after start (cyclically) that is neither
// free-listed nor offline.
func refNextAllocated(p *Phys, start int) int {
	n := p.NumFrames()
	for k := 0; k < n; k++ {
		i := (start + k) % n
		f := p.Frame(FrameID(i))
		if !f.OnFreeList() && !f.IsOffline() {
			return i
		}
	}
	return -1
}

func TestAllocBitmapTracksFrameState(t *testing.T) {
	// Drive the pool through a random mix of alloc/free/offline/online
	// and cross-check the packed bitmap against the frame structs (the
	// source of truth) plus NextAllocated against a linear scan, at
	// every step. 130 frames spans three bitmap words, so word
	// boundaries and the wrap-around both get exercised.
	s := sim.New()
	p := New(s, 130)
	o := &fakeOwner{name: "o"}
	var held []*Frame
	rng := uint64(42)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for step := 0; step < 2000; step++ {
		switch next(5) {
		case 0, 1:
			if p.FreeCount() > 0 {
				f, _ := p.Alloc(nil, o, step)
				held = append(held, f)
			}
		case 2:
			if len(held) > 0 {
				i := next(len(held))
				p.Free(held[i], FreedRelease)
				held = append(held[:i], held[i+1:]...)
			}
		case 3:
			p.OfflineNode(-1, 1+next(3))
		case 4:
			p.OnlineNode(-1, 1+next(3))
		}
		for i := 0; i < p.NumFrames(); i++ {
			f := p.Frame(FrameID(i))
			want := !f.OnFreeList() && !f.IsOffline()
			if p.FrameAllocated(i) != want {
				t.Fatalf("step %d: frame %d bitmap %v, frame state %v",
					step, i, p.FrameAllocated(i), want)
			}
		}
		start := next(p.NumFrames())
		if got, want := p.NextAllocated(start), refNextAllocated(p, start); got != want {
			t.Fatalf("step %d: NextAllocated(%d) = %d, reference scan = %d", step, start, got, want)
		}
	}
}

// refNextAllocatedIn is the per-frame reference for the region-scoped
// scan: first allocated frame at or after start within [base, limit),
// wrapping at limit back to base.
func refNextAllocatedIn(p *Phys, start, base, limit int) int {
	n := limit - base
	for k := 0; k < n; k++ {
		i := base + (start-base+k)%n
		f := p.Frame(FrameID(i))
		if !f.OnFreeList() && !f.IsOffline() {
			return i
		}
	}
	return -1
}

func TestHotUnplugReplugShardedConsistency(t *testing.T) {
	// Hot-unplug/replug cycles on a sharded pool — scoped to one node
	// and whole-machine — must keep the per-node free lists, the packed
	// allocation bitmap, and both scan primitives consistent with the
	// frame structs (the PTE-facing source of truth) after every
	// operation. Online re-admits frames that unplug-time teardown
	// already scrubbed; this is the regression net for re-admission
	// trusting stale identity or a stale bitmap bit.
	s := sim.New()
	const frames, nodes = 130, 3
	p := NewSharded(s, frames, nodes)
	o := &fakeOwner{name: "o"}
	var held []*Frame
	rng := uint64(99)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for step := 0; step < 3000; step++ {
		switch next(6) {
		case 0, 1:
			if p.FreeCount() > 0 {
				f, _ := p.Alloc(nil, o, step)
				held = append(held, f)
			}
		case 2:
			if len(held) > 0 {
				i := next(len(held))
				p.Free(held[i], FreedRelease)
				held = append(held[:i], held[i+1:]...)
			}
		case 3:
			p.OfflineNode(next(nodes), 1+next(5))
		case 4:
			p.OnlineNode(next(nodes), 1+next(5))
		case 5:
			if next(2) == 0 {
				p.OfflineNode(-1, 1+next(5))
			} else {
				p.OnlineNode(-1, 1+next(5))
			}
		}
		if err := p.ValidateFreeLists(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for i := 0; i < p.NumFrames(); i++ {
			f := p.Frame(FrameID(i))
			want := !f.OnFreeList() && !f.IsOffline()
			if p.FrameAllocated(i) != want {
				t.Fatalf("step %d: frame %d bitmap %v, frame state %v",
					step, i, p.FrameAllocated(i), want)
			}
			if f.IsOffline() && f.Owner != nil {
				t.Fatalf("step %d: offline frame %d retains identity", step, i)
			}
		}
		start := next(p.NumFrames())
		if got, want := p.NextAllocated(start), refNextAllocated(p, start); got != want {
			t.Fatalf("step %d: NextAllocated(%d) = %d, reference scan = %d", step, start, got, want)
		}
		node := next(nodes)
		base, limit := p.NodeRange(node)
		nstart := base + next(limit-base)
		if got, want := p.NextAllocatedIn(nstart, base, limit), refNextAllocatedIn(p, nstart, base, limit); got != want {
			t.Fatalf("step %d: NextAllocatedIn(%d, %d, %d) = %d, reference scan = %d",
				step, nstart, base, limit, got, want)
		}
	}
}
