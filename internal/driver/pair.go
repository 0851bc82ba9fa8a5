package driver

import (
	"fmt"

	"memhogs/internal/compiler"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/vm"
	"memhogs/internal/workload"
)

// PairResult reports one process of a two-hog run.
type PairResult struct {
	Bench   string
	Mode    rt.Mode
	Elapsed sim.Time
	Done    bool
	Times   [vm.NumBuckets]sim.Time
	VM      vm.Stats // VM.StolenPages: pages the daemon took from this process
}

// RunPair runs two out-of-core benchmarks concurrently on one machine,
// both in the same program version — the multiprogramming scenario the
// paper's introduction motivates but its evaluation (one hog plus the
// interactive task) does not measure. It answers: does releasing still
// help when the "other application" is another memory hog?
//
// Each program is bound with its spec's own parameters, and there is
// no interactive task: cfg.Params must be nil and cfg.InteractiveSleep
// negative.
func RunPair(specA, specB *workload.Spec, cfg RunConfig) (*PairResult, *PairResult, error) {
	if cfg.Params != nil {
		return nil, nil, fmt.Errorf("driver: RunPair binds each spec's own params; Params must be nil")
	}
	if cfg.InteractiveSleep >= 0 {
		return nil, nil, fmt.Errorf("driver: RunPair has no interactive task; InteractiveSleep must be negative")
	}
	specs := []*workload.Spec{specA, specB}
	imgs := make([]*compiler.Image, len(specs))
	for i, spec := range specs {
		c := cfg
		comp, err := c.compile(spec)
		if err != nil {
			return nil, nil, err
		}
		if imgs[i], err = comp.Bind(c.Params); err != nil {
			return nil, nil, fmt.Errorf("bind %s: %w", spec.Name, err)
		}
	}

	h := boot(cfg)
	hogs := make([]*hog, len(specs))
	for i, spec := range specs {
		hogs[i] = h.newHog(spec.Name, imgs[i])
		h.start(hogs[i], false)
	}
	if err := h.finish(specA.Name + "+" + specB.Name); err != nil {
		return nil, nil, err
	}
	res := make([]*PairResult, len(specs))
	for i, g := range hogs {
		res[i] = &PairResult{
			Bench:   specs[i].Name,
			Mode:    cfg.Mode,
			Elapsed: g.proc.Elapsed(),
			Done:    g.proc.Done,
			Times:   g.proc.Times,
			VM:      g.proc.AS.Stats,
		}
	}
	return res[0], res[1], nil
}
