// Package disk models the paging I/O subsystem of the experimental
// platform: a set of disks behind shared adapters, with swap space
// striped page-by-page across all disks (the paper stripes raw swap
// partitions across ten Seagate Cheetah 4LP disks on five SCSI
// adapters).
//
// Each disk services requests FIFO with a positioning phase (cheap if
// the request is sequential with the previous one on that disk) and a
// transfer phase that must also hold the disk's adapter, modelling the
// two-disks-per-adapter bandwidth constraint.
package disk

import (
	"fmt"

	"memhogs/internal/chaos"
	"memhogs/internal/sim"
)

// nearBlocks is the distance (in page-sized blocks) within which
// positioning costs only the short settle time rather than a full
// seek.
const nearBlocks = 32

// maxReadRetries bounds transient-read-error recovery: after this
// many failed attempts the next transfer succeeds unconditionally, so
// an armed disk-error fault can never stall a request forever.
const maxReadRetries = 8

// Op distinguishes reads (page-in) from writes (page-out).
type Op int

// Request operations.
const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Request is one page-sized transfer. Done, if non-nil, is invoked in
// the event loop when the transfer completes; Waiter, if non-nil, is
// woken instead.
type Request struct {
	Op     Op
	Block  int64 // absolute block (page) number on the target disk
	Done   func()
	Waiter *sim.Proc

	queuedAt sim.Time
}

// Config holds the disk-model parameters.
type Config struct {
	NumDisks     int      // total spindles
	NumAdapters  int      // adapters; disks are assigned round-robin
	PosTimeMin   sim.Time // positioning (seek+rotate), random portion low
	PosTimeMax   sim.Time // positioning, random portion high
	SeqPosTime   sim.Time // positioning when sequential with previous block
	TransferTime sim.Time // time to move one page over the channel
	Seed         uint64
}

// Stats aggregates per-array counters across all disks.
type Stats struct {
	Reads       int64
	Writes      int64
	SeqHits     int64    // requests that got the sequential-position discount
	ReadRetries int64    // transfers re-issued after an injected read error
	BusyTime    sim.Time // total spindle busy time
	QueueTime   sim.Time // total time requests spent queued before service
}

// Array is the collection of disks plus adapters.
type Array struct {
	sim   *sim.Sim
	cfg   Config
	disks []*disk
	stats Stats

	// Chaos is the fault injector; nil (the default) injects nothing.
	Chaos *chaos.Injector
}

type disk struct {
	arr       *Array
	id        int
	name      string
	adapter   *sim.Sem
	queue     []*Request
	busy      bool
	lastBlock int64
	rng       *sim.Rand
	proc      *sim.Proc
	work      *sim.Waitq
}

// New creates the disk array and starts one service process per disk.
func New(s *sim.Sim, cfg Config) *Array {
	if cfg.NumDisks <= 0 {
		panic("disk: NumDisks must be positive")
	}
	if cfg.NumAdapters <= 0 {
		cfg.NumAdapters = 1
	}
	a := &Array{sim: s, cfg: cfg}
	adapters := make([]*sim.Sem, cfg.NumAdapters)
	for i := range adapters {
		adapters[i] = sim.NewSem(fmt.Sprintf("adapter%d", i), 1)
	}
	for i := 0; i < cfg.NumDisks; i++ {
		d := &disk{
			arr:       a,
			id:        i,
			name:      fmt.Sprintf("disk%d", i),
			adapter:   adapters[i%cfg.NumAdapters],
			lastBlock: -1 << 40, // far away: first request pays a full seek
			rng:       sim.NewRand(cfg.Seed + uint64(i)*0x9e37 + 1),
			work:      sim.NewWaitq(fmt.Sprintf("disk%d.work", i)),
		}
		a.disks = append(a.disks, d)
		d.proc = s.Spawn(d.name, d.serve)
	}
	return a
}

// NumDisks returns the number of spindles.
func (a *Array) NumDisks() int { return len(a.disks) }

// Stats returns a snapshot of the aggregate counters.
func (a *Array) Stats() Stats { return a.stats }

// DiskFor maps a striped swap page number to its disk index. Swap is
// striped with a one-page stripe unit.
func (a *Array) DiskFor(swapPage int64) int {
	d := int(swapPage % int64(len(a.disks)))
	if d < 0 {
		d += len(a.disks)
	}
	return d
}

// Submit enqueues a request on the disk holding swapPage. The caller
// is responsible for arranging to learn of completion through
// req.Done or req.Waiter.
func (a *Array) Submit(swapPage int64, req *Request) {
	d := a.disks[a.DiskFor(swapPage)]
	req.Block = swapPage / int64(len(a.disks)) // block within the stripe column
	req.queuedAt = a.sim.Now()
	d.queue = append(d.queue, req)
	d.work.WakeOne()
}

// pickNext chooses the next request CSCAN-style: the lowest block at
// or beyond the current head position, wrapping to the lowest block
// overall. Queue sorting is what lets several interleaved sequential
// streams (multiple prefetch pipelines) coalesce into sequential runs
// per region instead of paying a full positioning delay per page.
func (d *disk) pickNext() *Request {
	best, bestWrap := -1, -1
	for i, r := range d.queue {
		if r.Block >= d.lastBlock {
			if best < 0 || r.Block < d.queue[best].Block {
				best = i
			}
		}
		if bestWrap < 0 || r.Block < d.queue[bestWrap].Block {
			bestWrap = i
		}
	}
	idx := best
	if idx < 0 {
		idx = bestWrap
	}
	req := d.queue[idx]
	copy(d.queue[idx:], d.queue[idx+1:])
	d.queue = d.queue[:len(d.queue)-1]
	return req
}

// serve is the per-disk service loop.
func (d *disk) serve(p *sim.Proc) {
	a := d.arr
	for {
		for len(d.queue) == 0 {
			d.work.Wait(p)
		}
		req := d.pickNext()

		a.stats.QueueTime += p.Now() - req.queuedAt

		// Chaos: a controller hiccup before positioning even starts.
		if spike := a.Chaos.FireDelay(chaos.DiskSlow, d.name); spike > 0 {
			p.Sleep(spike)
		}

		// Positioning: near-sequential requests (within a cylinder or
		// two of the last block) pay only the short settle time;
		// distant ones pay a full seek + rotation.
		var pos sim.Time
		dist := req.Block - d.lastBlock
		if dist < 0 {
			dist = -dist
		}
		if dist <= nearBlocks {
			pos = a.cfg.SeqPosTime
			a.stats.SeqHits++
		} else {
			pos = d.rng.Duration(a.cfg.PosTimeMin, a.cfg.PosTimeMax+1)
		}
		start := p.Now()
		p.Sleep(pos)

		// Transfer holds the adapter: two disks share one channel.
		// Chaos can fail a read transfer; the disk backs off
		// (exponentially, from the fault's magnitude) and retries from
		// the already-positioned head, with a retry cap guaranteeing
		// forward progress.
		for attempt := 0; ; attempt++ {
			d.adapter.Acquire(p)
			p.Sleep(a.cfg.TransferTime)
			d.adapter.Release()
			if req.Op != Read || attempt >= maxReadRetries {
				break
			}
			backoff := a.Chaos.FireDelay(chaos.DiskError, d.name)
			if backoff == 0 {
				break
			}
			a.stats.ReadRetries++
			p.Sleep(backoff << uint(attempt))
		}

		d.lastBlock = req.Block
		a.stats.BusyTime += p.Now() - start
		if req.Op == Read {
			a.stats.Reads++
		} else {
			a.stats.Writes++
		}
		if req.Done != nil {
			req.Done()
		}
		if req.Waiter != nil {
			req.Waiter.Wake()
		}
	}
}
