// Package disk models the paging I/O subsystem of the experimental
// platform: a set of disks behind shared adapters, with swap space
// striped page-by-page across all disks (the paper stripes raw swap
// partitions across ten Seagate Cheetah 4LP disks on five SCSI
// adapters).
//
// Each disk services requests in CSCAN order with a positioning phase
// (cheap if the request is near the previous one on that disk) and a
// transfer phase that must also hold the disk's adapter, modelling the
// two-disks-per-adapter bandwidth constraint.
//
// A disk is an event-driven server, not a simulated process: its
// service loop is a chain of event callbacks on the disk's state
// (next, position, acquire, transfer, transferred), so a request costs
// events but no goroutine switches.
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
// the event loop, with no current process, when the transfer
// completes. It must not block: it may update state, wake a process
// (p.Wake) or submit further requests.
type Request struct {
	Op    Op
	Block int64 // absolute block (page) number on the target disk
	Done  func()

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

// adapter is a channel shared by the disks assigned to it: a disk
// transfers only while it holds its adapter, and the adapter passes
// from one holder to the longest-waiting disk.
type adapter struct {
	busy    bool
	waiters []*disk
}

type disk struct {
	arr       *Array
	name      string
	adapter   *adapter
	queue     []*Request
	idle      bool // queue ran dry; the next Submit kicks the server
	lastBlock int64
	rng       *sim.Rand

	// The request in service, when positioning began, and how many of
	// its transfers have failed.
	req     *Request
	start   sim.Time
	attempt int

	// The service-loop callbacks, bound once: a method value passed
	// to At or After would allocate at every scheduling.
	nextFn, positionFn, acquireFn, transferFn, transferredFn func()
}

// New creates the disk array. Each disk's server starts with an event
// at the current time, which finds its queue empty (and idles) or
// serves what was submitted before the run.
func New(s *sim.Sim, cfg Config) *Array {
	if cfg.NumDisks <= 0 {
		panic("disk: NumDisks must be positive")
	}
	if cfg.NumAdapters <= 0 {
		cfg.NumAdapters = 1
	}
	a := &Array{sim: s, cfg: cfg}
	adapters := make([]adapter, cfg.NumAdapters)
	for i := 0; i < cfg.NumDisks; i++ {
		d := &disk{
			arr:       a,
			name:      fmt.Sprintf("disk%d", i),
			adapter:   &adapters[i%cfg.NumAdapters],
			lastBlock: -1 << 40, // far away: first request pays a full seek
			rng:       sim.NewRand(cfg.Seed + uint64(i)*0x9e37 + 1),
		}
		d.nextFn, d.positionFn, d.acquireFn = d.next, d.position, d.acquire
		d.transferFn, d.transferredFn = d.transfer, d.transferred
		a.disks = append(a.disks, d)
		s.At(s.Now(), d.nextFn)
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

// Submit enqueues a request on the disk holding swapPage, kicking the
// disk's server if it is idle. The caller learns of completion through
// req.Done.
func (a *Array) Submit(swapPage int64, req *Request) {
	d := a.disks[a.DiskFor(swapPage)]
	req.Block = swapPage / int64(len(a.disks)) // block within the stripe column
	req.queuedAt = a.sim.Now()
	d.queue = append(d.queue, req)
	if d.idle {
		d.idle = false
		a.sim.At(a.sim.Now(), d.nextFn)
	}
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

// next starts the next queued request, or idles the disk until
// Submit kicks it.
//
//simvet:hot
func (d *disk) next() {
	if len(d.queue) == 0 {
		d.idle = true
		return
	}
	a := d.arr
	d.req = d.pickNext()
	d.attempt = 0
	a.stats.QueueTime += a.sim.Now() - d.req.queuedAt

	// Chaos: a controller hiccup before positioning even starts.
	if spike := a.Chaos.FireDelay(chaos.DiskSlow, d.name); spike > 0 {
		a.sim.After(spike, d.positionFn)
		return
	}
	d.position()
}

// position moves the head: near-sequential requests (within a
// cylinder or two of the last block) pay only the short settle time;
// distant ones pay a full seek + rotation.
//
//simvet:hot
func (d *disk) position() {
	a := d.arr
	var pos sim.Time
	dist := d.req.Block - d.lastBlock
	if dist < 0 {
		dist = -dist
	}
	if dist <= nearBlocks {
		pos = a.cfg.SeqPosTime
		a.stats.SeqHits++
	} else {
		pos = d.rng.Duration(a.cfg.PosTimeMin, a.cfg.PosTimeMax+1)
	}
	d.start = a.sim.Now()
	a.sim.After(pos, d.acquireFn)
}

// acquire takes the adapter for a transfer (two disks share one
// channel), or waits in its FIFO for the holder to pass it on.
//
//simvet:hot
func (d *disk) acquire() {
	ad := d.adapter
	if ad.busy {
		//simvet:allow SV006 at most one entry per disk on its adapter; the slice is reused
		ad.waiters = append(ad.waiters, d)
		return
	}
	ad.busy = true
	d.transfer()
}

// transfer moves the page while the disk holds its adapter.
//
//simvet:hot
func (d *disk) transfer() { d.arr.sim.After(d.arr.cfg.TransferTime, d.transferredFn) }

// transferred ends a transfer: the adapter passes to the
// longest-waiting disk, then the request either completes or, after an
// injected read error, backs off (exponentially, from the fault's
// magnitude) and retries from the already-positioned head. The retry
// cap guarantees forward progress. On completion the disk goes
// straight on to its next request.
//
//simvet:hot
func (d *disk) transferred() {
	a := d.arr
	ad := d.adapter
	if len(ad.waiters) > 0 {
		w := ad.waiters[0]
		copy(ad.waiters, ad.waiters[1:])
		ad.waiters = ad.waiters[:len(ad.waiters)-1]
		a.sim.At(a.sim.Now(), w.transferFn)
	} else {
		ad.busy = false
	}

	req := d.req
	if req.Op == Read && d.attempt < maxReadRetries {
		if backoff := a.Chaos.FireDelay(chaos.DiskError, d.name); backoff > 0 {
			a.stats.ReadRetries++
			a.sim.After(backoff<<uint(d.attempt), d.acquireFn)
			d.attempt++
			return
		}
	}

	d.lastBlock = req.Block
	a.stats.BusyTime += a.sim.Now() - d.start
	if req.Op == Read {
		a.stats.Reads++
	} else {
		a.stats.Writes++
	}
	d.req = nil
	if req.Done != nil {
		req.Done()
	}
	d.next()
}
