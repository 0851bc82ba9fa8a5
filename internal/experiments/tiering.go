package experiments

import (
	"fmt"

	"memhogs/internal/driver"
	"memhogs/internal/metrics"
	"memhogs/internal/rt"
	"memhogs/internal/workload"
)

// The tiering campaign is the figure the paper could not draw in 2000:
// the same memory budget split between DRAM and a CXL-like far tier at
// several ratios, with the compiler's eq. 2 reuse priorities deciding
// which released pages earn a far slot. A release that would have
// thrown a reused page to disk instead parks it one tier down, and the
// re-reference pays ~25 us instead of a ~5 ms swap fault.

// TierRatio is one DRAM:far split of the machine's memory budget.
type TierRatio struct {
	DRAM, Far int // relative parts, e.g. 3:1
}

// String renders the ratio as "3:1".
func (r TierRatio) String() string { return fmt.Sprintf("%d:%d", r.DRAM, r.Far) }

// Split divides total pages according to the ratio (DRAM gets the
// rounding remainder).
func (r TierRatio) Split(total int) (dram, far int) {
	far = total * r.Far / (r.DRAM + r.Far)
	return total - far, far
}

// TieringRatios is the campaign's sweep: 1:0 is the all-DRAM baseline
// (no far tier at all), then progressively more of the budget moves a
// tier down.
var TieringRatios = []TierRatio{{1, 0}, {3, 1}, {1, 1}, {1, 3}}

// TieringModes is the version set the tiering sweep compares. Unlike
// the paper's O/P/R/B bars it swaps aggressive releasing for Reactive:
// Reactive never releases pro-actively (pages leave only via daemon
// donation, which bypasses the releaser's demotion path), so it shows
// what the far tier is worth without hints steering it.
var TieringModes = []rt.Mode{rt.ModeOriginal, rt.ModePrefetch, rt.ModeReactive, rt.ModeBuffered}

// Tiering is the dataset behind the tiering campaign: each benchmark x
// version x DRAM:far ratio, run to completion.
type Tiering struct {
	Opts    Opts
	Specs   []*workload.Spec
	Ratios  []TierRatio
	Results map[string]map[rt.Mode]map[TierRatio]*driver.Result
}

// tieringConfig derives one cell's run config: the machine's total
// memory budget is held fixed and split DRAM:far by the ratio.
func (o Opts) tieringConfig(mode rt.Mode, ratio TierRatio, cache *driver.CompileCache) driver.RunConfig {
	cfg := o.runConfig(mode, cache)
	dram, far := ratio.Split(cfg.Kernel.UserMemPages)
	cfg.Kernel.UserMemPages = dram
	cfg.Kernel.Far.Pages = far
	return cfg
}

// tierCell is one run at a DRAM:far split.
type tierCell struct {
	cell
	ratio TierRatio
}

func (c tierCell) String() string { return c.cell.String() + "@" + c.ratio.String() }

// tierCells enumerates specs × modes × TieringRatios, ratio-minor.
func tierCells(specs []*workload.Spec, modes []rt.Mode) []tierCell {
	var cells []tierCell
	for _, c := range grid(specs, modes) {
		for _, ratio := range TieringRatios {
			cells = append(cells, tierCell{c, ratio})
		}
	}
	return cells
}

// RunTiering collects the Tiering dataset. The (benchmark x mode x
// ratio) grid runs on the campaign worker pool, so rendered output is
// byte-identical at any -j.
func RunTiering(o Opts) (*Tiering, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	cache := driver.NewCompileCache()
	cells := tierCells(specs, TieringModes)
	res, err := runCells(o, cells,
		func(c tierCell) string { return "tiering " + c.String() },
		func(c tierCell) (*driver.Result, string, error) {
			r, err := driver.Run(c.spec, o.tieringConfig(c.mode, c.ratio, cache))
			if err != nil {
				return nil, "", err
			}
			return r, fmt.Sprintf("elapsed=%v hard=%d far=%d", r.Elapsed, r.VM.HardFaults, r.VM.FarFaults), nil
		})
	if err != nil {
		return nil, err
	}
	d := &Tiering{
		Opts:    o,
		Specs:   specs,
		Ratios:  TieringRatios,
		Results: map[string]map[rt.Mode]map[TierRatio]*driver.Result{},
	}
	for i, c := range cells {
		entry(entry(d.Results, c.spec.Name), c.mode)[c.ratio] = res[i]
	}
	return d, nil
}

// Check asserts the campaign's headline invariant: in every (benchmark
// x ratio) cell, Buffered takes no more hard faults than Original —
// hints may only help, at any tier split.
func (d *Tiering) Check() error {
	for _, spec := range d.Specs {
		for _, ratio := range d.Ratios {
			b := d.Results[spec.Name][rt.ModeBuffered][ratio]
			o := d.Results[spec.Name][rt.ModeOriginal][ratio]
			if b.VM.HardFaults > o.VM.HardFaults {
				return fmt.Errorf("tiering %s@%s: Buffered hard faults %d > Original %d",
					spec.Name, ratio, b.VM.HardFaults, o.VM.HardFaults)
			}
		}
	}
	return nil
}

// TieringTable renders the sweep: one row per benchmark x version x
// ratio, with the tier traffic that produced the elapsed time.
func TieringTable(d *Tiering) *metrics.Table {
	t := metrics.NewTable(
		"Memory tiering: fixed budget split DRAM:far, releases as demotion hints",
		"benchmark", "ver", "dram:far", "elapsed", "hard faults", "far hits",
		"demoted", "demote full", "released")
	for _, spec := range d.Specs {
		for _, mode := range TieringModes {
			for _, ratio := range d.Ratios {
				r := d.Results[spec.Name][mode][ratio]
				t.AddRow(spec.Name, mode.String(), ratio.String(),
					r.Elapsed.String(), r.VM.HardFaults, r.VM.FarFaults,
					r.VM.Demotions, r.Far.DemoteFull, r.VM.ReleasedPages)
			}
		}
	}
	t.AddNote("1:0 is the all-DRAM baseline; other rows shrink DRAM and grow the far")
	t.AddNote("tier at a fixed total budget. Demotion is priority-gated: released")
	t.AddNote("pages with reuse (eq. 2 priority >= 1) park in the far tier and a")
	t.AddNote("re-fault pays far latency instead of a disk fault. V (reactive) never")
	t.AddNote("releases, so only O-vs-B shows what hint-steered demotion buys.")
	return t
}
