package sim

import "fmt"

// Proc is a simulated process. A wait starts through a continuation
// form (SleepThen, ParkThen and the Then forms of Waitq, Lock and Sem),
// which records what to run next and returns; the process's next
// resumption runs it. At most one wait is pending at a time.
//
// A step process (SpawnStep) has no body and no goroutine: the system
// daemons and the run-time layer's workers are step processes. Its
// resumption event runs the continuation inline in the event loop,
// with no current process. Only the hogs have a body: a goroutine that
// holds control only between being resumed and blocking in Await,
// which runs the continuations on that goroutine until no wait is
// pending. The blocking forms (Sleep, Park, Wait, Acquire) are a
// continuation form plus Await, which only the Proc's own body may
// call. A blocking process runs the event loop itself (see
// yieldToLoop), so resuming itself costs no goroutine switch and
// resuming another costs one. Locks, semaphores and wait queues hold
// both kinds in one FIFO.
type Proc struct {
	sim      *Sim
	name     string
	resume   chan struct{}
	finished bool

	// step marks a step process; cont is the pending wait's
	// continuation, run by its next resumption.
	step bool
	cont func()
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Waiting reports whether a wait is pending.
func (p *Proc) Waiting() bool { return p.cont != nil }

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
// as a blocking one does, or back to Close when Close resumed it. A
// body that returns with a wait pending panics: its continuation would
// be lost, as the resumption of a finished process is skipped.
func (p *Proc) run(body func(p *Proc)) {
	s := p.sim
	<-p.resume // first dispatch, or Close
	if !s.closing {
		p.call(body)
		if p.cont != nil && !s.closing {
			panic("sim: " + p.name + " finished with a wait pending")
		}
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

// yieldToLoop gives up control until the process is next resumed
// (for Await, its one caller). It runs the event loop on this
// goroutine: when the next process to resume is p itself it returns at
// once, otherwise it hands control to that process (or back to Run
// when the run ends) and waits. Under Close it panics with errClosed
// instead, both when Close resumes it and when a deferred call tries
// to park during the unwind. Blocking p anywhere but in p's own body
// (from an event callback, or from another process) would run the loop
// on a goroutine p does not own, so it panics.
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

// Await blocks p's body until no wait is pending: it yields until p is
// resumed, runs the pending continuation, and repeats.
//
//simvet:hot
func (p *Proc) Await() {
	for p.cont != nil {
		p.yieldToLoop()
		k := p.cont
		p.cont = nil
		k()
	}
}

// resumed is the continuation of a blocking form.
func resumed() {}

// Sleep advances virtual time by d for this process. Other events run
// in the meantime.
func (p *Proc) Sleep(d Time) {
	p.SleepThen(d, resumed)
	p.Await()
}

// Park blocks the process indefinitely until some other party calls
// Wake. The caller is responsible for having registered itself
// somewhere a waker will find it (Waitq does this automatically).
func (p *Proc) Park() {
	p.ParkThen(resumed)
	p.Await()
}

// negativeSleep panics: a sleep cannot go back in time.
func (p *Proc) negativeSleep(d Time) {
	panic(fmt.Sprintf("sim: %s: negative sleep %d", p.name, d))
}

// SleepThen is Sleep in continuation form: it returns at once, and k
// runs once d has passed.
//
//simvet:hot
func (p *Proc) SleepThen(d Time, k func()) {
	if d < 0 {
		p.negativeSleep(d)
	}
	p.ParkThen(k)
	p.sim.scheduleResume(p, p.sim.now+d)
}

// ParkThen is Park in continuation form: it returns at once, and k
// runs once p is woken. A wait started with one pending would lose the
// first one's continuation, so it panics, except while Close unwinds.
//
//simvet:hot
func (p *Proc) ParkThen(k func()) {
	if p.cont != nil && !p.sim.closing {
		panic("sim: " + p.name + " started a wait with one pending")
	}
	p.cont = k
}

// Wake schedules p to resume at the current virtual time. It is safe
// to call from event callbacks or from other processes; the wake-up is
// delivered through the event queue, preserving determinism.
func (p *Proc) Wake() {
	p.sim.scheduleResume(p, p.sim.now)
}
