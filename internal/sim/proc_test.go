package sim

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"memhogs/internal/leakcheck"
)

// TestCloseUnwindsEveryBlockedProc parks a process in every way one
// can block — never started, Sleep, Park, a Lock queue, a Sem queue —
// and checks that Close unwinds them all without a panic, running
// their deferred calls as the current process.
func TestCloseUnwindsEveryBlockedProc(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	l := NewLock("l")
	m := NewSem("m", 0)
	var started []string
	var deferredCurrent *Proc
	var holder *Proc
	holder = s.Spawn("holder", func(p *Proc) {
		l.Acquire(p)
		defer func() {
			deferredCurrent = s.Current()
			l.Release(p) // hands the lock to the queued waiter
		}()
		started = append(started, "holder")
		p.Park()
	})
	s.Spawn("sleeper", func(p *Proc) {
		started = append(started, "sleeper")
		p.Sleep(Second)
	})
	s.Spawn("parker", func(p *Proc) {
		started = append(started, "parker")
		p.Park()
	})
	s.Spawn("locker", func(p *Proc) {
		started = append(started, "locker")
		l.Acquire(p)
		t.Error("locker acquired the lock during Close")
	})
	s.Spawn("semmer", func(p *Proc) {
		started = append(started, "semmer")
		m.Acquire(p)
		t.Error("semmer acquired a token during Close")
	})
	s.SpawnAt(Second, "late", func(p *Proc) {
		t.Error("a process that never started ran its body under Close")
	})
	s.Run(Millisecond)
	if len(started) != 5 || s.LiveProcs() != 6 {
		t.Fatalf("before Close: started %v, %d live, want 5 started and 6 live", started, s.LiveProcs())
	}
	s.Close()
	if s.LiveProcs() != 0 {
		t.Fatalf("after Close: %d live procs, want 0", s.LiveProcs())
	}
	if deferredCurrent != holder {
		t.Fatalf("deferred Release saw Current() = %v, want the holder", deferredCurrent)
	}
	if s.Current() != nil {
		t.Fatalf("after Close: Current() = %v, want nil", s.Current())
	}
	s.Close() // a second Close is a no-op
	if n := leakcheck.Settle(before); n > before {
		t.Fatalf("goroutines: %d before, %d after Close", before, n)
	}
}

// TestCloseUnwindsDeferredPark: a deferred call that blocks while
// Close unwinds is unwound too, rather than running the loop.
func TestCloseUnwindsDeferredPark(t *testing.T) {
	s := New()
	ran := false
	s.Spawn("p", func(p *Proc) {
		defer func() {
			p.Sleep(Millisecond)
			t.Error("deferred Sleep returned under Close")
		}()
		p.Park()
	})
	s.At(Second, func() { ran = true })
	s.Run(Millisecond)
	s.Close()
	if s.LiveProcs() != 0 || ran {
		t.Fatalf("after Close: %d live, callback ran = %v; want 0 live, not run", s.LiveProcs(), ran)
	}
}

// TestCallbacksSeeNoCurrentProc: a blocking process runs the loop on
// its own goroutine, and the callbacks it runs still see no current
// process.
func TestCallbacksSeeNoCurrentProc(t *testing.T) {
	s := New()
	var inCallback []*Proc
	var inProc *Proc
	var self *Proc
	self = s.Spawn("p", func(p *Proc) {
		s.After(5, func() { inCallback = append(inCallback, s.Current()) })
		p.Sleep(10) // runs the callback at 5 on this goroutine
		inProc = s.Current()
		s.After(0, func() { inCallback = append(inCallback, s.Current()) })
	})
	s.Run(0)
	if len(inCallback) != 2 || inCallback[0] != nil || inCallback[1] != nil {
		t.Fatalf("callbacks saw Current() = %v, want [nil nil]", inCallback)
	}
	if inProc != self {
		t.Fatalf("after Sleep the process saw Current() = %v, want itself", inProc)
	}
}

// TestBlockOutsideBodyPanics: an event callback that blocks a process
// (here one that has not started yet) fails loudly instead of running
// the loop on a goroutine the process does not own.
func TestBlockOutsideBodyPanics(t *testing.T) {
	s := New()
	defer s.Close()
	var p *Proc
	s.At(0, func() { p.Sleep(Millisecond) })
	p = s.SpawnAt(Second, "late", func(p *Proc) { t.Error("late process ran") })
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run(0)
		return nil
	}()
	if want := "sim: late blocked outside its own body"; got != want {
		t.Fatalf("Run panicked with %v, want %q", got, want)
	}
}

// TestSleepZeroIsFIFO: Sleep(0) with another process due at the same
// instant lets that process go first; alone, it returns at once.
func TestSleepZeroIsFIFO(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
		p.Sleep(0)
		order = append(order, "a3")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
		p.Sleep(0)
		order = append(order, "b2")
	})
	s.Run(0)
	want := []string{"a1", "b1", "a2", "b2", "a3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 0 || s.LiveProcs() != 0 {
		t.Fatalf("now %v, %d live; want 0, 0", s.Now(), s.LiveProcs())
	}
}

// TestRunResumesProcsAfterHorizon: processes a horizon leaves
// mid-flight continue on the next Run.
func TestRunResumesProcsAfterHorizon(t *testing.T) {
	s := New()
	var ticks []Time
	for _, name := range []string{"a", "b"} {
		s.Spawn(name, func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(10)
				ticks = append(ticks, p.Now())
			}
		})
	}
	if at := s.Run(35); at != 35 || len(ticks) != 6 || s.LiveProcs() != 2 {
		t.Fatalf("Run(35) = %v with %d ticks, %d live; want 35, 6, 2", at, len(ticks), s.LiveProcs())
	}
	if at := s.Run(0); at != 100 || len(ticks) != 20 || s.LiveProcs() != 0 {
		t.Fatalf("Run(0) = %v with %d ticks, %d live; want 100, 20, 0", at, len(ticks), s.LiveProcs())
	}
}

// TestStopFromProc: Stop inside a process returns Run once that
// process blocks, and the next Run carries on.
func TestStopFromProc(t *testing.T) {
	s := New()
	var log []string
	s.Spawn("stopper", func(p *Proc) {
		p.Sleep(10)
		s.Stop()
		log = append(log, "stopped")
		p.Sleep(10)
		log = append(log, "resumed")
	})
	s.Spawn("other", func(p *Proc) {
		p.Sleep(15)
		log = append(log, "other")
	})
	if at := s.Run(0); at != 10 || len(log) != 1 {
		t.Fatalf("Run = %v with log %v, want 10 and [stopped]", at, log)
	}
	if at := s.Run(0); at != 20 || len(log) != 3 || log[1] != "other" || log[2] != "resumed" {
		t.Fatalf("second Run = %v with log %v, want 20 and [stopped other resumed]", at, log)
	}
}

// contend runs four contenders through a schedule that blocks in every
// way — sleep, a lock, a semaphore, a wait queue — with one of three
// implementations, and returns the log of what each did when, plus the
// lock's counters. A callback at 60 wakes every waiter.
func contend(t *testing.T, kind string) []string {
	t.Helper()
	s := New()
	defer s.Close()
	l := NewLock("l")
	m := NewSem("m", 1)
	q := NewWaitq("q")
	var log []string
	logf := func(p *Proc, what string, d Time) {
		log = append(log, fmt.Sprintf("%d:%s:%s:%d", p.Now(), p.Name(), what, d))
	}
	// thenScript is the schedule in continuation form.
	thenScript := func(p *Proc, i int) {
		p.SleepThen(Time(i), func() {
			start := p.Now()
			locked := func(wait Time) {
				logf(p, "lock", wait)
				p.SleepThen(5, func() {
					l.Release(p)
					asked := p.Now()
					granted := func() {
						logf(p, "sem", p.Now()-asked)
						p.SleepThen(7, func() {
							m.Release()
							q.WaitThen(p, func() { logf(p, "woken", 0) })
						})
					}
					if m.AcquireThen(p, granted) {
						granted()
					}
				})
			}
			if l.AcquireThen(p, func() { locked(l.Handed(p, start)) }) {
				locked(0)
			}
		})
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("c%d", i)
		switch kind {
		case "body":
			s.Spawn(name, func(p *Proc) {
				p.Sleep(Time(i))
				logf(p, "lock", l.Acquire(p))
				p.Sleep(5)
				l.Release(p)
				logf(p, "sem", m.Acquire(p))
				p.Sleep(7)
				m.Release()
				q.Wait(p)
				logf(p, "woken", 0)
			})
		case "then-body":
			s.Spawn(name, func(p *Proc) {
				thenScript(p, i)
				p.Await()
			})
		case "step":
			var p *Proc
			p = s.SpawnStep(name, func() { thenScript(p, i) })
		}
	}
	s.At(60, q.WakeAll)
	s.Run(0)
	return append(log, fmt.Sprintf("lock %d %d %d %d", l.Acquisitions, l.Contended, l.WaitTime, l.HoldTime))
}

// TestStepProcsMatchBodies: the continuation forms on step processes,
// the continuation forms awaited by a process with a body, and the
// blocking forms produce the same schedule.
func TestStepProcsMatchBodies(t *testing.T) {
	want := contend(t, "body")
	if len(want) != 13 {
		t.Fatalf("body schedule has %d entries, want 13: %v", len(want), want)
	}
	for _, kind := range []string{"then-body", "step"} {
		if got := contend(t, kind); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s schedule:\n got %v\nwant %v", kind, got, want)
		}
	}
}

// TestStepProcResumedWithoutContinuationPanics: a spurious wake-up of a
// step process that is not blocked is a bug in its steps.
func TestStepProcResumedWithoutContinuationPanics(t *testing.T) {
	s := New()
	var p *Proc
	p = s.SpawnStep("w", func() { p.Wake() })
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run(0)
		return nil
	}()
	if want := "sim: step process w resumed with no continuation"; got != want {
		t.Fatalf("Run panicked with %v, want %q", got, want)
	}
}

// TestSecondWaitPanics: a wait started while one is pending would
// overwrite its continuation, so it panics.
func TestSecondWaitPanics(t *testing.T) {
	s := New()
	var p *Proc
	p = s.SpawnStep("w", func() {
		p.SleepThen(Millisecond, resumed)
		p.ParkThen(resumed)
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run(0)
		return nil
	}()
	if want := "sim: w started a wait with one pending"; got != want {
		t.Fatalf("Run panicked with %v, want %q", got, want)
	}
}

// TestFinishWithWaitPendingPanics: a body that starts a wait in
// continuation form and returns without Await would lose the
// continuation, so its goroutine panics. The panic ends the process,
// so the body runs in a child test binary.
func TestFinishWithWaitPendingPanics(t *testing.T) {
	if os.Getenv("SIM_LOST_WAIT_CHILD") == "1" {
		s := New()
		s.Spawn("lost", func(p *Proc) { p.SleepThen(Millisecond, resumed) })
		s.Run(0)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFinishWithWaitPendingPanics$")
	cmd.Env = append(os.Environ(), "SIM_LOST_WAIT_CHILD=1")
	out, err := cmd.CombinedOutput()
	if want := "panic: sim: lost finished with a wait pending"; err == nil || !strings.Contains(string(out), want) {
		t.Fatalf("child exited with %v, want a crash with %q; output:\n%s", err, want, out)
	}
}
