package kernel

import (
	"fmt"
	"strings"
	"testing"

	"memhogs/internal/sim"
	"memhogs/internal/vm"
)

// TestHogChargeSchedulePinned pins the CPU schedule of three hogs and
// a worker on a two-CPU machine with a 300 µs quantum: the hogs' user
// charges lie both below and above the quantum, their hard faults
// charge 700 µs of system time (three slices), and the worker charges
// 2.5 ms of system time across nine slices. Every process's time
// buckets, its worker buckets and its finish time are pinned, with the
// run's end. The values were recorded from the blocking CPU charge
// the hogs used before every thread charged through one slice chain.
func TestHogChargeSchedulePinned(t *testing.T) {
	cfg := TestConfig()
	cfg.NCPU = 2
	cfg.CPUQuantum = 300 * sim.Microsecond
	cfg.VM.HardFaultCPU = 700 * sim.Microsecond
	sys := NewSystem(cfg)
	defer sys.Sim.Close()

	a := sys.NewProcess("a", 16)
	a.Start(false, func(th *Thread) {
		for i := 0; i < 6; i++ {
			th.User(120 * sim.Microsecond)
			th.FlushUser()
			th.Touch(i, i%2 == 0)
		}
		th.User(2 * sim.Millisecond)
	})
	b := sys.NewProcess("b", 16)
	b.Start(false, func(th *Thread) {
		th.User(1100 * sim.Microsecond)
		th.Touch(3, false)
		th.User(250 * sim.Microsecond)
		th.SleepIdle(50 * sim.Microsecond)
		th.User(900 * sim.Microsecond)
		th.Touch(11, true)
		th.User(40 * sim.Microsecond)
	})
	c := sys.NewProcess("c", 16)
	c.Start(false, func(th *Thread) {
		for i := 0; i < 4; i++ {
			th.Touch(4*i, false)
			th.User(sim.Time(i+1) * 280 * sim.Microsecond)
		}
	})
	var x vm.Exec
	x = c.SpawnWorker("worker", func() {
		x.SystemThen(2500*sim.Microsecond, func() {
			x.SystemThen(400*sim.Microsecond, func() {})
		})
	})
	end := sys.Run(0)

	var got strings.Builder
	for _, p := range []*Process{a, b, c} {
		fmt.Fprintf(&got, "%s %d %d %d\n", p.Name, p.Times, p.WorkerTimes, p.FinishedAt)
	}
	fmt.Fprintf(&got, "end %d", end)
	want := "a [2720000 850000 0 0 780000 27186687] [0 0 0 0 0 0] 31536687\n" +
		"b [2290000 1400000 0 0 700000 31406687] [0 0 0 0 0 0] 35846687\n" +
		"c [2800000 1460000 0 0 720000 13976687] [0 2900000 0 0 820000 0] 18956687\n" +
		"end 41806687"
	if got.String() != want {
		t.Fatalf("schedule:\n%s\nwant:\n%s", got.String(), want)
	}
}
