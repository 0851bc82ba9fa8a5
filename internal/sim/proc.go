package sim

import "fmt"

// Proc is a simulated process: a goroutine that runs in lockstep with
// the event loop. At most one Proc goroutine executes at any real
// moment; all others are parked waiting on their resume channel.
//
// Proc methods that advance or block (Sleep, Park, and everything
// built on them) must only be called from within the Proc's own body.
type Proc struct {
	sim      *Sim
	name     string
	resume   chan struct{}
	finished bool

	// parked is true while the process is blocked on a Waitq (as
	// opposed to sleeping on a timer). Used by Waitq bookkeeping.
	parked bool
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulator this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Spawn creates a process named name running body and schedules it to
// start at the current virtual time. It returns the new Proc, which
// can be woken or inspected but whose blocking methods belong to the
// body goroutine alone.
func (s *Sim) Spawn(name string, body func(p *Proc)) *Proc {
	return s.SpawnAt(s.now, name, body)
}

// SpawnAt is Spawn with a delayed start time.
func (s *Sim) SpawnAt(t Time, name string, body func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, resume: make(chan struct{})}
	s.nprocs++
	go func() {
		<-p.resume // wait for first dispatch
		defer func() {
			p.finished = true
			s.nprocs--
			s.yield <- struct{}{}
		}()
		body(p)
	}()
	s.scheduleResume(p, t)
	return p
}

// yieldToLoop returns control to the event loop and blocks until the
// process is next dispatched.
func (p *Proc) yieldToLoop() {
	p.sim.yield <- struct{}{}
	<-p.resume
}

// Sleep advances virtual time by d for this process. Other events run
// in the meantime.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: negative sleep %d", p.name, d))
	}
	p.sim.scheduleResume(p, p.sim.now+d)
	p.yieldToLoop()
}

// Park blocks the process indefinitely until some other party calls
// Wake. The caller is responsible for having registered itself
// somewhere a waker will find it (Waitq does this automatically).
func (p *Proc) Park() {
	p.parked = true
	p.yieldToLoop()
	p.parked = false
}

// Wake schedules p to resume at the current virtual time. It is safe
// to call from event callbacks or from other processes; the wake-up is
// delivered through the event queue, preserving determinism.
func (p *Proc) Wake() {
	p.sim.scheduleResume(p, p.sim.now)
}
