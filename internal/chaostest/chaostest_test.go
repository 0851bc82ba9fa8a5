package chaostest

import (
	"bytes"
	"reflect"
	"testing"

	"memhogs"
	"memhogs/internal/chaos"
	"memhogs/internal/driver"
	"memhogs/internal/events"
	"memhogs/internal/kernel"
	"memhogs/internal/rt"
	"memhogs/internal/workload"
)

var benches = []string{"matvec", "mgrid", "cgm", "fftpde", "buk", "embar"}

// TestChaosInvariants is the property test: for every benchmark and
// program version, a seed-derived random fault plan must leave every
// continuous audit clean and let the program complete. A failure is
// shrunk to a minimal plan and reported as a pasteable replay command.
func TestChaosInvariants(t *testing.T) {
	for _, bench := range benches {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			for mi, mode := range []rt.Mode{rt.ModeOriginal, rt.ModePrefetch, rt.ModeAggressive, rt.ModeBuffered} {
				seed := uint64(len(bench)*31 + mi + 1) // reproducible, distinct per cell
				plan := RandomPlan(seed)
				err := Check(bench, mode, plan)
				if err == nil {
					continue
				}
				min := Shrink(plan, func(p chaos.Plan) bool {
					return Check(bench, mode, p) != nil
				})
				t.Errorf("%s/%s seed %d: %v\nminimal failing plan: %s\nreplay: %s",
					bench, mode, seed, err, min, Repro(bench, mode, min))
			}
		})
	}
}

// TestChaosReplayMatchesHarness checks the replay contract of Repro: a
// harness cell replayed through memhogs.Chaos with the options memhog
// chaos passes runs the same simulation. cgm/O seed 94 arms far-drop,
// so both runs need the same far tier; cgm/P seed 95 names no far site.
func TestChaosReplayMatchesHarness(t *testing.T) {
	for _, c := range []struct {
		mode rt.Mode
		seed uint64
		far  bool
	}{{rt.ModeOriginal, 94, true}, {rt.ModePrefetch, 95, false}} {
		plan := RandomPlan(c.seed)
		if plan.TargetsFar() != c.far {
			t.Fatalf("seed %d: plan %s, want TargetsFar() = %v", c.seed, plan, c.far)
		}
		res, err := RunPlan("cgm", c.mode, plan)
		if err != nil {
			t.Fatal(err)
		}
		v, err := memhogs.ParseVersion(c.mode.String())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := memhogs.Chaos("cgm", v, memhogs.TestMachine(), memhogs.ChaosOptions{
			Seed:               plan.Seed,
			Faults:             plan.FaultsString(),
			InteractiveSleepMS: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		name := Repro("cgm", c.mode, plan)
		if got, want := rep.ElapsedSeconds, res.Elapsed.Seconds(); got != want {
			t.Errorf("%s: replay elapsed %v s, harness %v s", name, got, want)
		}
		if got, want := rep.HardFaults, res.VM.HardFaults; got != want {
			t.Errorf("%s: replay took %d hard faults, harness %d", name, got, want)
		}
		if got, want := rep.Injected, res.Chaos.Map(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: replay injected %v, harness %v", name, got, want)
		}
		if got, want := rep.AuditTicks, res.AuditTicks; got != want {
			t.Errorf("%s: replay audited %d times, harness %d", name, got, want)
		}
	}
}

// TestRandomPlanDeterministic pins the generator: equal seeds must
// give equal plans (the repro command depends on it).
func TestRandomPlanDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		a, b := RandomPlan(seed), RandomPlan(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %s != %s", seed, a, b)
		}
		if len(a.Faults) == 0 {
			t.Fatalf("seed %d produced an empty plan", seed)
		}
	}
}

// TestShrinkFindsMinimalPlan checks the shrinker against a synthetic
// failure predicate: only one fault of five matters, and the shrunk
// plan must contain exactly it.
func TestShrinkFindsMinimalPlan(t *testing.T) {
	plan := chaos.Plan{Seed: 3, Faults: []chaos.Fault{
		{Site: chaos.ReleaseDrop, Prob: 0.1},
		{Site: chaos.DiskSlow, Prob: 0.1},
		{Site: chaos.DaemonStorm, Prob: 0.9}, // the culprit
		{Site: chaos.PrefetchDup, Prob: 0.1},
		{Site: chaos.StaleShared, Prob: 0.1},
	}}
	fails := func(p chaos.Plan) bool {
		for _, f := range p.Faults {
			if f.Site == chaos.DaemonStorm {
				return true
			}
		}
		return false
	}
	min := Shrink(plan, fails)
	if len(min.Faults) != 1 || min.Faults[0].Site != chaos.DaemonStorm {
		t.Fatalf("shrunk to %s, want just daemon-storm", min)
	}
	if min.Seed != 3 {
		t.Fatalf("shrink changed the seed to %d", min.Seed)
	}
}

// tracedRun runs one scaled benchmark version to completion with the
// flight recorder attached, under the given config mutator.
func tracedRun(t *testing.T, bench string, mode rt.Mode, mutate func(*driver.RunConfig)) (*driver.Result, []byte) {
	t.Helper()
	spec, err := workload.ScaledByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	var rec *events.Recorder
	cfg := Config(mode, chaos.Plan{})
	cfg.Chaos = nil
	cfg.OnSystem = func(sys *kernel.System) {
		rec = events.New(sys.Sim, 1<<17)
		sys.SetEvents(rec)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := driver.Run(spec, cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", bench, mode, err)
	}
	return res, rec.Chrome()
}

// TestMetamorphicZeroProbabilityPlan is the metamorphic property: a
// chaos plan whose probabilities are all zero must leave every run
// byte-identical to a plain run — same Result, same event trace — for
// every benchmark and version. This is what guarantees the injection
// points are free when disarmed (no stray randomness, no perturbed
// scheduling).
func TestMetamorphicZeroProbabilityPlan(t *testing.T) {
	zero := chaos.Plan{Seed: 99}
	for s := chaos.Site(0); s < chaos.NumSites; s++ {
		if !s.Timed() {
			zero.Faults = append(zero.Faults, chaos.Fault{Site: s, Prob: 0})
		}
	}
	for _, bench := range benches {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			for _, mode := range []rt.Mode{rt.ModeOriginal, rt.ModePrefetch, rt.ModeAggressive, rt.ModeBuffered} {
				plain, plainTrace := tracedRun(t, bench, mode, nil)
				chaosed, chaosTrace := tracedRun(t, bench, mode, func(cfg *driver.RunConfig) {
					p := zero
					cfg.Chaos = &p
				})
				if !bytes.Equal(plainTrace, chaosTrace) {
					t.Errorf("%s/%s: zero-probability plan changed the event trace (%d vs %d bytes)",
						bench, mode, len(plainTrace), len(chaosTrace))
				}
				if !reflect.DeepEqual(plain, chaosed) {
					t.Errorf("%s/%s: zero-probability plan changed the Result\nplain:  %+v\nchaos:  %+v",
						bench, mode, plain, chaosed)
				}
			}
		})
	}
}
