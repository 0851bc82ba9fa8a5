package pageout

import (
	"memhogs/internal/sim"
	"memhogs/internal/vm"
)

// Spawn launches a daemon as a step process (sim.SpawnStep) named
// name, whose first step, start, runs at the current virtual time. It
// returns the daemon's execution context: its Proc is the step
// process, and its SystemThen charges the daemon's CPU time.
type Spawn func(name string, start func()) vm.Exec

// stepper runs a daemon's loop as a step process, with no goroutine.
// The loop is a state machine: step makes one transition, and a
// transition that has to wait (a CPU charge, a sleep, a wait queue, a
// lock) starts the wait through one of the methods below and returns.
// The wait's continuation, resume, runs the machine again. A wait that
// ends at once (a zero charge, a free lock) leaves no wait pending on
// the process, so the same run loop goes on instead of nesting a call,
// and a batch of any size runs at a constant stack depth.
type stepper struct {
	p *sim.Proc
	x vm.Exec

	step    func() // one transition of the daemon's loop
	running bool   // run is on the stack

	lock      *sim.Lock // the lock a queued acquire waits for
	lockStart sim.Time  // when that acquire began

	// The continuations, bound once.
	resumeFn, handedFn func()
}

// start spawns the step process; step is the daemon's transition.
func (s *stepper) start(spawn Spawn, name string, step func()) {
	s.step = step
	s.resumeFn, s.handedFn = s.resume, s.handed
	s.x = spawn(name, s.resumeFn)
	s.p = s.x.Proc()
}

// run makes transitions until one starts a wait that is still pending.
//
//simvet:hot
func (s *stepper) run() {
	s.running = true
	for !s.p.Waiting() {
		s.step()
	}
	s.running = false
}

// resume ends a wait: it runs the machine, or, when the wait ended
// inside run's own call, lets run go on.
//
//simvet:hot
func (s *stepper) resume() {
	if !s.running {
		s.run()
	}
}

// handed ends a queued acquire: Release handed the process the lock.
//
//simvet:hot
func (s *stepper) handed() {
	s.lock.Handed(s.p, s.lockStart)
	s.resume()
}

// charge consumes d of CPU time in system mode (Exec.SystemThen).
//
//simvet:hot
func (s *stepper) charge(d sim.Time) {
	s.x.SystemThen(d, s.resumeFn)
}

// sleep lets d of virtual time pass (Proc.Sleep).
//
//simvet:hot
func (s *stepper) sleep(d sim.Time) {
	s.p.SleepThen(d, s.resumeFn)
}

// wait parks on q until a waker releases the process (Waitq.Wait).
//
//simvet:hot
func (s *stepper) wait(q *sim.Waitq) {
	q.WaitThen(s.p, s.resumeFn)
}

// acquire takes l (Lock.Acquire); a free lock is taken at once.
//
//simvet:hot
func (s *stepper) acquire(l *sim.Lock) {
	s.lock, s.lockStart = l, s.p.Now()
	l.AcquireThen(s.p, s.handedFn)
}
