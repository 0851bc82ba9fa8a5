package main

import (
	"math"
	"time"
)

// The measuring machine is a small guest on a shared host, and the
// host's speed drifts: the same child can take 1.2x longer a few
// minutes later, in wall and CPU time alike, with no steal time
// reported. There is no hardware cycle counter to measure in cycles
// instead. So an end-to-end run's workload children time a fixed integer
// loop, the probe, before the first operation and after each one, and
// the benchmark
// reports each operation's time scaled to the speed at which the probe
// takes refProbe:
//
//	reported = measured * refProbe / (mean of the probes either side)
//
// The probe takes about 15 ms, outside every operation's time, so it
// follows drift over seconds without much lengthening a pass.
// The probe is the benchmark's own code and calls nothing in the
// simulator, so a change to the simulator cannot move it; a change that
// makes the simulator faster moves the reported time by the same share
// as the measured one.

// refProbe is the probe's time on the machine the bounds in
// BENCHMARK.json were set on (a 2-vCPU x86-64 KVM guest, 2.0 GHz
// nominal), at its usual speed.
const refProbe = 5 * time.Millisecond

var probeSink uint64

// probe times a fixed xorshift loop three times and returns the
// fastest, in seconds. It touches no memory, so it measures the core's
// speed.
func probe() float64 {
	var best float64
	for r := 0; r < 3; r++ {
		t := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x += uint64(i)
		}
		probeSink += x
		if d := time.Since(t).Seconds(); r == 0 || d < best {
			best = d
		}
	}
	return best
}

// lastProbe is the child's latest probe; 0 when the child does not
// probe (the children of a per-layer run, where it would distort the
// profile and the tracing overhead).
var lastProbe float64

// startProbing makes the child probe before its first operation and,
// through probeAfterOp, after each one.
func startProbing() { lastProbe = probe() }

// probeAfterOp probes and returns the mean of this probe and the one
// before the operation just ended, or 0 when the child does not probe.
func probeAfterOp() float64 {
	if lastProbe == 0 {
		return 0
	}
	p := probe()
	around := (lastProbe + p) / 2
	lastProbe = p
	return around
}

func minimum(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		m = math.Min(m, x)
	}
	return m
}

// atRefSpeed scales a time measured at a probe's speed to the
// reference speed.
func atRefSpeed(seconds, probe float64) float64 {
	return seconds * refProbe.Seconds() / probe
}

// fastestSum is a pass's time built from several: for each operation,
// its fastest time over the children, each at the reference speed,
// summed over the operations. A burst of load on the host only ever
// makes an operation slower, so the fastest time is the steadiest
// estimate of its cost. col picks wall (0) or CPU (1) time.
func fastestSum(children []sample, col int) float64 {
	var sum float64
	for i := range children[0].rep.Ops {
		best := 0.0
		for c, s := range children {
			op := s.rep.Ops[i]
			if t := atRefSpeed(op[col], op[2]); c == 0 || t < best {
				best = t
			}
		}
		sum += best
	}
	return sum
}
