package pageout

import (
	"strconv"

	"memhogs/internal/events"
	"memhogs/internal/mem"
	"memhogs/internal/sim"
)

// BalancerStats counts inter-node free-frame migrations.
type BalancerStats struct {
	Activations int64 // times the balancer found work
	Migrations  int64 // batches moved
	FramesMoved int64 // free frames moved between nodes
}

// Balancer is the inter-node free-memory balancer for a sharded pool:
// when one node's free list falls to its low-water mark while another
// node sits above the steal target, it migrates a batch of free
// frames (identities preserved — a loaned frame stays rescuable) from
// the rich node's head to the poor node's tail. Allocation-time
// stealing still covers the fully-exhausted case; the balancer keeps
// that case rare by smoothing imbalance before allocations hit it.
// The kernel only creates it when the pool has more than one node, so
// single-node runs have no extra process on the sim clock.
//
// It runs as a step process (see stepper).
type Balancer struct {
	phys *mem.Phys
	st   stepper

	low     int // migrate toward nodes at or below this free count
	target  int // donors must stay above this after giving
	batch   int // frames per migration
	perPage sim.Time

	wake   *sim.Waitq
	kicked bool

	// The loop's position: its state and the migration being charged.
	state       int
	dst, src, n int
	nodeNames   []string // "node<k>", the migration events' targets

	Stats BalancerStats

	// Events is the flight recorder; nil disables recording.
	Events *events.Recorder
}

// balancerBatch bounds one migration so the balancer interleaves with
// the daemons instead of draining a node in one step.
const balancerBatch = 32

// NewBalancer creates the balancer with the per-node daemon
// thresholds: low is the per-node min-free (the wake condition),
// target the per-node desfree (what a donor must keep). perPage is
// the CPU charged per migrated frame.
func NewBalancer(phys *mem.Phys, low, target int, perPage sim.Time) *Balancer {
	names := make([]string, phys.Nodes())
	for k := range names {
		names[k] = "node" + strconv.Itoa(k)
	}
	return &Balancer{
		phys:      phys,
		low:       low,
		target:    target,
		batch:     balancerBatch,
		perPage:   perPage,
		wake:      sim.NewWaitq("balancer.wake"),
		nodeNames: names,
	}
}

// Kick asks the balancer to check node balance soon. Safe from any
// context; the kernel wires it into mem.Phys.NeedMemory alongside the
// per-node daemon kicks.
func (b *Balancer) Kick() {
	b.kicked = true
	b.wake.WakeOne()
}

// Start launches the balancer's step process through spawn, which
// also supplies its CPU accounting.
func (b *Balancer) Start(spawn Spawn) { b.st.start(spawn, "balancerd", b.step) }

// plan picks one migration: the poorest node at or below low receives
// from the richest node that can give without dropping to the target.
// It returns (dst, src, frames); frames == 0 means nothing to do.
func (b *Balancer) plan() (dst, src, n int) {
	dst, src = -1, -1
	worst := b.low + 1
	for k := 0; k < b.phys.Nodes(); k++ {
		if free := b.phys.FreeCountNode(k); free < worst {
			worst, dst = free, k
		}
	}
	if dst < 0 {
		return 0, 0, 0
	}
	best := b.target
	for k := 0; k < b.phys.Nodes(); k++ {
		if k == dst {
			continue
		}
		if free := b.phys.FreeCountNode(k); free > best {
			best, src = free, k
		}
	}
	if src < 0 {
		return 0, 0, 0
	}
	n = b.batch
	if surplus := best - b.target; surplus < n {
		n = surplus
	}
	if need := b.target - worst; need > 0 && need < n {
		n = need
	}
	if n < 0 {
		n = 0
	}
	return dst, src, n
}

// The balancer's states: where its loop goes on when it runs next.
const (
	balIdle  = iota // wait until a migration is due
	balPlan         // plan the next migration of the activation, or end it
	balMoved        // the migration's charge is done: move the frames
)

// step is one transition of the balancer's loop: wait until a node
// needs frames, then migrate batches, charging perPage per frame,
// until the plan finds nothing more to move.
//
//simvet:hot
func (b *Balancer) step() {
	switch b.state {
	case balIdle:
		if _, _, n := b.plan(); n <= 0 {
			b.kicked = false
			b.st.wait(b.wake)
			return
		}
		b.kicked = false
		b.Stats.Activations++
		b.state = balPlan
	case balPlan:
		b.dst, b.src, b.n = b.plan()
		if b.n <= 0 {
			b.state = balIdle
			return
		}
		b.state = balMoved
		b.st.charge(b.perPage * sim.Time(b.n))
	case balMoved:
		moved := b.phys.Migrate(b.src, b.dst, b.n)
		if moved == 0 {
			b.state = balIdle
			return
		}
		b.Stats.Migrations++
		b.Stats.FramesMoved += int64(moved)
		b.Events.Emit(events.BalancerMigrate, "balancerd", b.nodeNames[b.dst], -1, int64(moved), int64(b.src))
		b.state = balPlan
	}
}
