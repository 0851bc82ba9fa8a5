package hogvet

import (
	"fmt"

	"memhogs/internal/compiler"
)

// VetParams verifies a compiled schedule with runtime parameter
// bindings for the residency certification (HV011–HV013). Vet is the
// parameterless form; without bindings, certification bounds that
// depend on runtime parameters degrade to whole arrays and HV011
// stays quiet.
func VetParams(c *compiler.Compiled, params map[string]int64) Diagnostics {
	opts := DefaultOptions()
	opts.Params = params
	return VetSchedule(c.Prog, c.Target, c.Hints(), opts)
}

// Tier-fixture certification options, shared by the tier fixtures'
// tests and cmd/gen-golden: a 1200-page far tier (the far share of a
// 3:1 split of the 4800-page test allotment) behind the kernel's
// default min-prio 1 demotion gate.
const (
	TierFixtureFarPages = 1200
	TierFixtureMinPrio  = 1
)

// VetParamsFar is VetParams with the two-tier certificate checks
// enabled (HV014–HV016): farPages sizes the modeled far-memory tier
// and farMinPrio mirrors the kernel's demotion gate
// (kernel.FarConfig.MinPrio). Shared by the tier fixtures' tests and
// cmd/gen-golden so both sides certify under identical options.
func VetParamsFar(c *compiler.Compiled, params map[string]int64, farPages, farMinPrio int) Diagnostics {
	opts := DefaultOptions()
	opts.Params = params
	opts.FarPages = farPages
	opts.FarMinPrio = farMinPrio
	return VetSchedule(c.Prog, c.Target, c.Hints(), opts)
}

// TamperDeadHint returns the compiled schedule with a synthetic
// release appended for the named never-referenced array, cloned from
// the schedule's last release so every other check stays quiet
// (consistent priority, fresh tag). This is the shape a corrupted or
// hand-written schedule produces — the stock compiler derives hints
// from references and cannot emit it — and it is the HV010 fixture
// construction shared by deadhint_test.go and cmd/gen-golden.
func TamperDeadHint(c *compiler.Compiled, arrayName string) ([]compiler.Hint, error) {
	hints := c.Hints()
	var dead *compiler.Hint
	maxTag := 0
	for i := range hints {
		if hints[i].Tag > maxTag {
			maxTag = hints[i].Tag
		}
		if hints[i].Kind == compiler.HintRelease {
			dead = &hints[i]
		}
	}
	if dead == nil {
		return nil, fmt.Errorf("hogvet: schedule has no release hint to clone")
	}
	for _, a := range c.Prog.Arrays {
		if a.Name == arrayName {
			synth := *dead
			synth.Array = a
			synth.Tag = maxTag + 1
			return append(hints, synth), nil
		}
	}
	return nil, fmt.Errorf("hogvet: program has no array %q", arrayName)
}
