package sim

import "fmt"

// Proc is a simulated process: a goroutine that holds control only
// between being resumed and blocking. At most one Proc goroutine
// executes at any real moment; all others are parked waiting on their
// resume channel. A blocking process runs the event loop itself (see
// yieldToLoop), so resuming itself costs no goroutine switch and
// resuming another process costs one.
//
// Proc methods that advance or block (Sleep, Park, and everything
// built on them) must only be called from within the Proc's own body;
// called anywhere else, they panic.
//
// A step process (SpawnStep) has no body and no goroutine: the system
// daemons and the run-time layer's workers are step processes, and
// only the hogs have a body. A step process blocks through the
// continuation forms (SleepThen, ParkThen and the Then forms of Waitq,
// Lock and Sem), which record what to run next and return; its
// resumption event runs that continuation inline in the event loop,
// with no current process. Locks, semaphores and wait queues hold both
// kinds in one FIFO.
type Proc struct {
	sim      *Sim
	name     string
	resume   chan struct{}
	finished bool

	// step marks a step process; cont is its continuation, run by its
	// next resumption.
	step bool
	cont func()
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
	s.procs = append(s.procs, p)
	go p.run(body)
	s.scheduleResume(p, t)
	return p
}

// SpawnStep creates a step process named name and schedules its first
// step, first, to run at the current virtual time, where Spawn would
// schedule a body's start. A step process never finishes: it is not
// counted by LiveProcs, and Close has nothing to unwind.
func (s *Sim) SpawnStep(name string, first func()) *Proc {
	p := &Proc{sim: s, name: name, step: true, cont: first}
	s.scheduleResume(p, s.now)
	return p
}

// resumeStep runs a step process's continuation for its resumption
// event.
//
//simvet:hot
func (p *Proc) resumeStep() {
	k := p.cont
	if k == nil {
		panic("sim: step process " + p.name + " resumed with no continuation")
	}
	p.cont = nil
	k()
}

// run is the process goroutine. A finishing process passes control on
// as a blocking one does, or back to Close when Close resumed it.
func (p *Proc) run(body func(p *Proc)) {
	s := p.sim
	<-p.resume // first dispatch, or Close
	if !s.closing {
		p.call(body)
	}
	p.finished = true
	s.nprocs--
	if s.closing {
		s.yield <- struct{}{}
		return
	}
	s.transfer(s.next())
}

// call runs body, absorbing the unwind Close starts. Any other panic
// propagates: untouched outside Close, re-raised during it.
func (p *Proc) call(body func(p *Proc)) {
	defer func() {
		if p.sim.closing {
			if r := recover(); r != nil && r != errClosed {
				panic(r)
			}
		}
	}()
	body(p)
}

// yieldToLoop gives up control until the process is next resumed. It
// runs the event loop on this goroutine: when the next process to
// resume is p itself it returns at once, otherwise it hands control
// to that process (or back to Run when the run ends) and waits. Under
// Close it panics with errClosed instead, both when Close resumes it
// and when a deferred call tries to park during the unwind. Blocking
// p anywhere but in p's own body (from an event callback, or from
// another process) would run the loop on a goroutine p does not own,
// so it panics.
func (p *Proc) yieldToLoop() {
	s := p.sim
	if s.closing {
		panic(errClosed)
	}
	if s.current != p {
		panic("sim: " + p.name + " blocked outside its own body")
	}
	if q := s.next(); q != p {
		s.transfer(q)
		<-p.resume
		if s.closing {
			panic(errClosed)
		}
	}
}

// Sleep advances virtual time by d for this process. Other events run
// in the meantime.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		p.negativeSleep(d)
	}
	p.sim.scheduleResume(p, p.sim.now+d)
	p.yieldToLoop()
}

// Park blocks the process indefinitely until some other party calls
// Wake. The caller is responsible for having registered itself
// somewhere a waker will find it (Waitq does this automatically).
func (p *Proc) Park() { p.yieldToLoop() }

// negativeSleep panics: a sleep cannot go back in time.
func (p *Proc) negativeSleep(d Time) {
	panic(fmt.Sprintf("sim: %s: negative sleep %d", p.name, d))
}

// SleepThen is Sleep in continuation form: k runs once d has passed.
// A step process returns at once and k runs from its resumption; a
// process with a body sleeps and then calls k before returning.
//
//simvet:hot
func (p *Proc) SleepThen(d Time, k func()) {
	if !p.step {
		p.Sleep(d)
		k()
		return
	}
	if d < 0 {
		p.negativeSleep(d)
	}
	p.cont = k
	p.sim.scheduleResume(p, p.sim.now+d)
}

// ParkThen is Park in continuation form: k runs once p is woken. A
// step process returns at once; a process with a body parks and then
// calls k before returning.
//
//simvet:hot
func (p *Proc) ParkThen(k func()) {
	if !p.step {
		p.Park()
		k()
		return
	}
	p.cont = k
}

// Wake schedules p to resume at the current virtual time. It is safe
// to call from event callbacks or from other processes; the wake-up is
// delivered through the event queue, preserving determinism.
func (p *Proc) Wake() {
	p.sim.scheduleResume(p, p.sim.now)
}
