package experiments

import (
	"fmt"
	"sort"
	"strings"

	"memhogs/internal/chaos"
	"memhogs/internal/driver"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/workload"
)

// ChaosMatrix is the benchmarks × versions × fault-classes campaign:
// every cell runs one benchmark version to completion under one named
// fault class with continuous auditing, on the shared worker pool.
type ChaosMatrix struct {
	Opts    Opts
	Seed    uint64
	Classes []string
	Specs   []*workload.Spec
	// Results[bench][class][mode].
	Results map[string]map[string]map[rt.Mode]*driver.Result
}

// ChaosConfig returns the chaos run of base under plan. memhog chaos,
// the chaos matrix and the property harness all build their runs here,
// so a replay line printed by one of them reruns the same machine. The
// machine's scale sets the audit cadence (5 ms scaled, 100 ms at full
// scale; the driver also audits after every injected fault) and the
// completion horizon (120 virtual s scaled, 30 min at full scale: the
// slowest scaled benchmark needs a few virtual seconds clean, so a
// wedge still fails fast). A plan that arms a far-tier site on a
// machine with no far tier gets one: the memory budget is split
// DRAM:far 3:1, the tiering campaign's first split.
func ChaosConfig(base driver.RunConfig, plan chaos.Plan, scaled bool) driver.RunConfig {
	cfg := base
	cfg.Chaos = &plan
	cfg.AuditEvery, cfg.Horizon = 100*sim.Millisecond, 30*60*sim.Second
	if scaled {
		cfg.AuditEvery, cfg.Horizon = 5*sim.Millisecond, 120*sim.Second
	}
	if plan.TargetsFar() && cfg.Kernel.Far.Pages == 0 {
		cfg.Kernel.UserMemPages, cfg.Kernel.Far.Pages = TierRatio{3, 1}.Split(cfg.Kernel.UserMemPages)
	}
	return cfg
}

// chaosCellSeed derives a distinct, reproducible plan seed per cell
// so classes and benchmarks decorrelate while the whole matrix stays
// a pure function of the campaign seed.
func chaosCellSeed(seed uint64, bench, class string, mode rt.Mode) uint64 {
	h := seed
	for _, s := range []string{bench, class, mode.String()} {
		for i := 0; i < len(s); i++ {
			h = sim.Hash64(h + uint64(s[i]))
		}
	}
	return h
}

// RunChaosMatrix executes the chaos campaign. Every run audits the
// whole machine on the cadence and after every injected fault, so a
// corrupting fault fails its cell (and therefore the matrix) with the
// audit's diagnosis rather than a downstream symptom.
func RunChaosMatrix(o Opts, seed uint64) (*ChaosMatrix, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	type chaosCell struct {
		cell
		class string
	}
	classes := chaos.ClassNames()
	var cells []chaosCell
	for _, spec := range specs {
		for _, class := range classes {
			for _, mode := range Modes {
				cells = append(cells, chaosCell{cell{spec, mode}, class})
			}
		}
	}
	cache := driver.NewCompileCache()
	res, err := runCells(o, cells,
		func(c chaosCell) string { return fmt.Sprintf("chaos %s/%s/%s", c.spec.Name, c.class, c.mode) },
		func(c chaosCell) (*driver.Result, string, error) {
			plan, err := chaos.ClassPlan(c.class, chaosCellSeed(seed, c.spec.Name, c.class, c.mode))
			if err != nil {
				return nil, "", err
			}
			r, err := driver.Run(c.spec, ChaosConfig(o.runConfig(c.mode, cache), plan, o.Scaled))
			if err != nil {
				return nil, "", err
			}
			return r, fmt.Sprintf("%v, %d faults, %d audits", r.Elapsed, r.Chaos.Total(), r.AuditTicks), nil
		})
	if err != nil {
		return nil, err
	}
	m := &ChaosMatrix{
		Opts:    o,
		Seed:    seed,
		Classes: classes,
		Specs:   specs,
		Results: map[string]map[string]map[rt.Mode]*driver.Result{},
	}
	for i, c := range cells {
		entry(entry(m.Results, c.spec.Name), c.class)[c.mode] = res[i]
	}
	return m, nil
}

// Check asserts the matrix's cross-cutting claims: every cell ran to
// completion (faults degrade, never wedge), each chaosed cell audited
// on its cadence, and the Buffered version keeps beating Original on
// hard faults even with faults being injected — the paper's headline
// survives the hostile environment.
func (m *ChaosMatrix) Check() error {
	for _, spec := range m.Specs {
		for _, class := range m.Classes {
			cell := m.Results[spec.Name][class]
			for _, mode := range Modes {
				r := cell[mode]
				if !r.Done {
					return fmt.Errorf("chaos %s/%s/%s did not complete", spec.Name, class, mode)
				}
				if r.AuditTicks == 0 {
					return fmt.Errorf("chaos %s/%s/%s ran without a single cadence audit", spec.Name, class, mode)
				}
			}
			b, o := cell[rt.ModeBuffered].VM.HardFaults, cell[rt.ModeOriginal].VM.HardFaults
			if b >= o {
				return fmt.Errorf("chaos %s/%s: Buffered took %d hard faults, Original %d — hints stopped paying off",
					spec.Name, class, b, o)
			}
		}
	}
	return nil
}

// FormatChaosMatrix renders the per-cell elapsed time, injected-fault
// totals and hard faults as a text table, one block per benchmark.
func FormatChaosMatrix(m *ChaosMatrix) *strings.Builder {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos matrix (seed %d): elapsed / faults injected / hard faults\n", m.Seed)
	names := make([]string, 0, len(m.Results))
	for _, spec := range m.Specs {
		names = append(names, spec.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "\n%s\n", name)
		fmt.Fprintf(&b, "  %-8s", "class")
		for _, mode := range Modes {
			fmt.Fprintf(&b, " %22s", mode.String())
		}
		b.WriteString("\n")
		for _, class := range m.Classes {
			fmt.Fprintf(&b, "  %-8s", class)
			for _, mode := range Modes {
				r := m.Results[name][class][mode]
				fmt.Fprintf(&b, " %10v %4df %5dh", r.Elapsed, r.Chaos.Total(), r.VM.HardFaults)
			}
			b.WriteString("\n")
		}
	}
	return &b
}
