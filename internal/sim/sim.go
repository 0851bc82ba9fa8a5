// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine models virtual time at nanosecond resolution and runs
// simulated processes as goroutines that execute one at a time. There
// is no dedicated event-loop goroutine: the loop runs on whichever
// goroutine holds control. A process that blocks pops events itself,
// running callbacks inline, until an event resumes a process. When
// that process is itself it simply returns (no goroutine switch);
// otherwise it hands control straight to the next process's goroutine
// (one switch). Run's caller takes control back only when the run
// ends. Together with FIFO tie-breaking on simultaneous events this
// makes every run fully deterministic, which the experiment harness
// relies on.
//
// Processes with a body that never finish (a hog cut by the horizon)
// are unwound by Close, which must follow the last Run for the
// goroutines to exit.
// Unwinding runs the bodies' deferred calls, so no defer may touch
// simulator state on a path that can park: it would run while the
// process is parked, not where the code reads as if it ran.
//
// The rest of the system is built from three primitives defined here:
// timed events, parkable processes, and wait queues (from which locks
// and semaphores are derived). Every wait starts through a
// continuation form (see Proc). Only the hogs (the processes running
// workload code) have a body and a goroutine, which waits out its
// continuations with Proc.Await, so a run with one hog makes no
// goroutine switch between its start and its end. Disks are
// event-driven servers, chains of timed callbacks with no process of
// their own, and the system daemons and the run-time layer's workers
// are step processes (SpawnStep), whose resumptions run continuations
// inline, because a page-in, a page-out, a prefetch or a daemon's
// per-page CPU charge would otherwise cost goroutine switches. An event
// callback, a step included, runs with no current process and must not
// await.
package sim

import (
	"errors"
	"strconv"
)

// Time is a point in virtual time, in nanoseconds since the start of
// the simulation.
type Time int64

// Convenient durations expressed in Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats a Time with a unit suited to its magnitude.
func (t Time) String() string { return string(t.AppendFormat(nil)) }

// AppendFormat appends String's text to b: whole nanoseconds below a
// microsecond, else three decimals of the largest unit the time
// reaches ("999ns", "1.000us", "2.500ms", "1800.000s"). It is the one
// time formatter; the flight recorder's Log appends through it. The
// decimals come from AppendIn, so they are the bytes %.3f prints for
// the float64 quotient.
func (t Time) AppendFormat(b []byte) []byte {
	switch {
	case t >= Second:
		return append(t.AppendIn(b, Second), 's')
	case t >= Millisecond:
		return append(t.AppendIn(b, Millisecond), "ms"...)
	case t >= Microsecond:
		return append(t.AppendIn(b, Microsecond), "us"...)
	default:
		return append(strconv.AppendInt(b, int64(t), 10), "ns"...)
	}
}

// AppendIn appends t in unit (Microsecond, Millisecond or Second) with
// three decimals: the bytes %.3f prints for float64(t)/float64(unit),
// computed in integers.
//
// With step = unit/1000 and q, r = t/step, t%step, the exact value is
// q + r/step thousandths, so rounding half-up gives q or q+1. Unless
// 2r == step, that value lies at least 1/(2*step) of a thousandth,
// which is 1/(2*unit) of a unit, from the rounding midpoint: a step of
// 1 has r == 0, and an even step has |r - step/2| >= 1. The float
// quotient is off by at most half an ulp, under t/unit * 2^-53, and
// t < 2^52 keeps that below 1/(2*unit), so the float rounds the same
// way. 2^52 ns is about 52 days; the trace horizon is 30 minutes
// (1.8e12 ns). On an exact tie the float's binary error decides the
// digit (1.0005 ms prints "1.000", 2.0005 ms "2.001"), so ties,
// negative t and t >= 2^52 print the float itself. A Microsecond step
// is 1, which never ties.
func (t Time) AppendIn(b []byte, unit Time) []byte {
	step := unit / 1000
	q, r := t/step, t%step
	if 2*r == step || t < 0 || t >= 1<<52 {
		return strconv.AppendFloat(b, float64(t)/float64(unit), 'f', 3, 64)
	}
	if 2*r > step {
		q++
	}
	b = strconv.AppendInt(b, int64(q/1000), 10)
	frac := q % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns the time as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Sim is a discrete-event simulator. The zero value is not usable; use
// New.
type Sim struct {
	now     Time
	seq     uint64
	events  eventQueue
	yield   chan struct{} // hands control back to Run (or Close)
	current *Proc         // process holding control, nil while callbacks run
	procs   []*Proc       // every spawned process, for Close
	nprocs  int           // live (spawned, not finished) processes
	horizon Time          // of the Run in progress
	stopped bool
	closing bool  // Close is unwinding the processes
	clamps  int64 // past-time schedules clamped to now (caller bugs)
}

// errClosed unwinds a process that Close resumes.
var errClosed = errors.New("sim: closed")

// New creates an empty simulator positioned at time zero.
func New() *Sim {
	s := &Sim{yield: make(chan struct{})}
	s.events.free = -1 // empty free list; first push grows the arena
	return s
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn to run inside the event loop at time t. Scheduling
// in the past is an error in the caller; it is clamped to now so the
// simulation never moves backwards, and counted (see ClampedSchedules)
// so the caller bug is observable.
//
//simvet:hot
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
		s.clamps++
	}
	s.seq++
	s.events.push(t, s.seq, fn, nil)
}

// After schedules fn to run d nanoseconds from now.
//
//simvet:hot
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// scheduleResume enqueues the resumption of p at time t.
//
//simvet:hot
func (s *Sim) scheduleResume(p *Proc, t Time) {
	if t < s.now {
		t = s.now
		s.clamps++
	}
	s.seq++
	s.events.push(t, s.seq, nil, p)
}

// ClampedSchedules returns how many times a schedule (At, After, or a
// process resumption) named a time in the past and was clamped to the
// current time. A nonzero count means some caller computed a stale
// deadline; the standard campaigns assert it stays zero.
func (s *Sim) ClampedSchedules() int64 { return s.clamps }

// Stop makes Run return once the current event completes. Pending
// events remain queued, and processes left mid-flight stay parked;
// Run may be called again to continue.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events until the queue drains, the horizon passes, or
// Stop is called. A zero horizon means "run until idle". It returns
// the virtual time at which it stopped.
func (s *Sim) Run(horizon Time) Time {
	s.stopped = false
	s.horizon = horizon
	if p := s.next(); p != nil {
		p.resume <- struct{}{}
		<-s.yield
	}
	return s.now
}

// next is the event loop. It runs on the goroutine that holds control
// (Run's caller, or a process that just blocked or finished): it pops
// events and runs callbacks, with no current process, until an event
// resumes a live process, and returns that process as current. It
// returns nil when the run ends: the queue drained, the horizon
// passed, or Stop was called. A resumption of a finished process is
// skipped.
//
//simvet:hot
func (s *Sim) next() *Proc {
	s.current = nil
	for s.events.len() > 0 && !s.stopped {
		at := s.events.peekAt()
		if s.horizon > 0 && at > s.horizon {
			s.now = s.horizon
			return nil
		}
		fn, p := s.events.pop()
		s.now = at
		if p == nil {
			fn()
		} else if p.step {
			p.resumeStep()
		} else if !p.finished {
			s.current = p
			return p
		}
	}
	return nil
}

// transfer hands control to q's goroutine, or back to Run when q is
// nil. The caller must block (or exit) right after.
func (s *Sim) transfer(q *Proc) {
	if q == nil {
		s.yield <- struct{}{}
	} else {
		q.resume <- struct{}{}
	}
}

// Close unwinds every unfinished process so its goroutine exits: each
// is resumed in turn, as current, and panics out of the call that
// parked it; a process that never started skips its body. The bodies'
// deferred calls run during the unwind, and one that parks is unwound
// in turn, so no event runs. Close is called from outside the
// simulation after the last Run; the Sim cannot run again.
func (s *Sim) Close() {
	if s.closing {
		return
	}
	s.closing = true
	// Index loop: a deferred call may spawn while unwinding.
	for i := 0; i < len(s.procs); i++ {
		if p := s.procs[i]; !p.finished {
			s.current = p
			p.resume <- struct{}{}
			<-s.yield
		}
	}
	s.current = nil
	s.procs = nil
}

// Current returns the process that holds control, or nil while event
// callbacks run (on whichever goroutine runs the loop).
func (s *Sim) Current() *Proc { return s.current }

// LiveProcs returns the number of spawned processes that have not yet
// finished. Useful for detecting deadlock in tests.
func (s *Sim) LiveProcs() int { return s.nprocs }
