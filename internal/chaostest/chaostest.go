// Package chaostest is the property-testing harness for the memory
// stack under fault injection: it runs scaled benchmarks with a chaos
// plan and the full safety net (continuous audits on a virtual-time
// cadence plus an audit after every injected fault), generates
// reproducible random plans, and shrinks a failing plan to a minimal
// one whose replay command can be pasted straight into memhog chaos.
package chaostest

import (
	"fmt"

	"memhogs/internal/chaos"
	"memhogs/internal/driver"
	"memhogs/internal/experiments"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/workload"
)

// Config returns the harness RunConfig for one scaled benchmark
// version under plan: experiments.ChaosConfig on the scaled machine,
// the run memhog -quick chaos replays.
func Config(mode rt.Mode, plan chaos.Plan) driver.RunConfig {
	return experiments.ChaosConfig(driver.TestRunConfig(mode), plan, true)
}

// RunPlan executes one scaled benchmark version under plan.
func RunPlan(bench string, mode rt.Mode, plan chaos.Plan) (*driver.Result, error) {
	spec, err := workload.ScaledByName(bench)
	if err != nil {
		return nil, err
	}
	return driver.Run(spec, Config(mode, plan))
}

// Check runs the plan and enforces the harness properties: every
// audit stays clean (no corruption), and the program still completes
// (faults degrade throughput, they never wedge the machine).
func Check(bench string, mode rt.Mode, plan chaos.Plan) error {
	res, err := RunPlan(bench, mode, plan)
	if err != nil {
		return err
	}
	if !res.Done {
		return fmt.Errorf("%s/%s did not complete within %v under %d injected faults",
			bench, mode, Config(mode, plan).Horizon, res.Chaos.Total())
	}
	return nil
}

// RandomPlan derives a reproducible fault plan from seed: one to four
// probabilistic faults at modest intensities, occasionally with a
// timed hot-unplug/replug pair on top. Equal seeds give equal plans.
func RandomPlan(seed uint64) chaos.Plan {
	rng := sim.NewRand(sim.Hash64(seed) + 1)
	var sites []chaos.Site
	for s := chaos.Site(0); s < chaos.NumSites; s++ {
		if !s.Timed() {
			sites = append(sites, s)
		}
	}
	p := chaos.Plan{Seed: seed}
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		p.Faults = append(p.Faults, chaos.Fault{
			Site: sites[rng.Intn(len(sites))],
			Prob: 0.01 + 0.15*rng.Float64(),
		})
	}
	if rng.Intn(3) == 0 {
		p.Faults = append(p.Faults,
			chaos.Fault{Site: chaos.MemShrink, At: 20 * sim.Millisecond, Mag: 64},
			chaos.Fault{Site: chaos.MemGrow, At: 200 * sim.Millisecond, Mag: 64})
	}
	return p
}

// Shrink greedily minimizes a failing plan: any single fault whose
// removal keeps the plan failing is dropped, until no removal does.
// fails must be deterministic (harness runs are).
func Shrink(plan chaos.Plan, fails func(chaos.Plan) bool) chaos.Plan {
	for {
		shrunk := false
		for i := range plan.Faults {
			cand := chaos.Plan{Seed: plan.Seed}
			cand.Faults = append(cand.Faults, plan.Faults[:i]...)
			cand.Faults = append(cand.Faults, plan.Faults[i+1:]...)
			if fails(cand) {
				plan, shrunk = cand, true
				break
			}
		}
		if !shrunk {
			return plan
		}
	}
}

// Repro renders the exact CLI command that replays a failure
// byte-for-byte (-quick selects the scaled machine the harness runs).
func Repro(bench string, mode rt.Mode, plan chaos.Plan) string {
	return fmt.Sprintf("memhog -quick chaos %s %s -seed %d -faults %q",
		bench, mode, plan.Seed, plan.FaultsString())
}
