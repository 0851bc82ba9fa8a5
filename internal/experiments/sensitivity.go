package experiments

import (
	"fmt"

	"memhogs/internal/driver"
	"memhogs/internal/metrics"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/workload"
)

// SensitivityPoint is one machine size in the memory sweep.
type SensitivityPoint struct {
	MemPages  int
	DataPages int
	Elapsed   map[rt.Mode]sim.Time
	Stolen    map[rt.Mode]int64
	Released  map[rt.Mode]int64
}

// Sensitivity is the memory-size sweep: the same out-of-core program
// run on machines from "data far exceeds memory" to "data fits",
// locating the crossover where releasing stops mattering. The paper
// fixes memory at 75 MB; this study answers the natural follow-up.
type Sensitivity struct {
	Opts   Opts
	Bench  string
	Points []SensitivityPoint
}

// RunSensitivity sweeps the machine's memory size for one benchmark.
// fractions scale memory relative to the program's data size (e.g.
// 0.25 = memory is a quarter of the data).
func RunSensitivity(o Opts, bench string, fractions []float64) (*Sensitivity, error) {
	spec, err := workload.ByName(bench)
	if o.Scaled {
		spec, err = workload.ScaledByName(bench)
	}
	if err != nil {
		return nil, err
	}
	if len(fractions) == 0 {
		fractions = []float64{0.25, 0.5, 0.75, 1.0, 1.25}
	}
	// Discover the data size from a probe run's compile stats. The
	// probe is a sequencing point: every sweep cell needs dataPages,
	// so only the (fraction × mode) grid behind it is parallelized.
	cache := driver.NewCompileCache()
	probe, err := driver.Run(spec, o.runConfig(rt.ModeOriginal, cache))
	if err != nil {
		return nil, err
	}
	dataPages := probe.TotalPages

	type sensCell struct {
		cell
		pages int
	}
	sweepModes := []rt.Mode{rt.ModePrefetch, rt.ModeBuffered}
	s := &Sensitivity{Opts: o, Bench: bench}
	var cells []sensCell
	for _, frac := range fractions {
		pages := int(float64(dataPages) * frac)
		if pages < 64 {
			pages = 64
		}
		s.Points = append(s.Points, SensitivityPoint{
			MemPages:  pages,
			DataPages: dataPages,
			Elapsed:   map[rt.Mode]sim.Time{},
			Stolen:    map[rt.Mode]int64{},
			Released:  map[rt.Mode]int64{},
		})
		for _, mode := range sweepModes {
			cells = append(cells, sensCell{cell{spec, mode}, pages})
		}
	}
	res, err := runCells(o, cells,
		func(c sensCell) string { return fmt.Sprintf("sensitivity %s mem=%dp %s", bench, c.pages, c.mode) },
		func(c sensCell) (*driver.Result, string, error) {
			cfg := o.runConfig(c.mode, cache)
			cfg.Kernel.UserMemPages = c.pages
			// Keep the daemon thresholds proportionate.
			cfg.Kernel.MinFreePages = c.pages / 64
			if cfg.Kernel.MinFreePages < 8 {
				cfg.Kernel.MinFreePages = 8
			}
			cfg.Kernel.TargetFreePages = 4 * cfg.Kernel.MinFreePages
			cfg.Kernel.Daemon.MinFree = cfg.Kernel.MinFreePages
			cfg.Kernel.Daemon.TargetFree = cfg.Kernel.TargetFreePages
			cfg.Kernel.PM.MinFree = cfg.Kernel.MinFreePages
			r, err := driver.Run(c.spec, cfg)
			if err != nil {
				return nil, "", err
			}
			return r, r.Elapsed.String(), nil
		})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		pt := s.Points[i/len(sweepModes)]
		pt.Elapsed[c.mode] = res[i].Elapsed
		pt.Stolen[c.mode] = res[i].Daemon.Stolen
		pt.Released[c.mode] = res[i].Releaser.Freed
	}
	return s, nil
}

// FormatSensitivity renders the sweep.
func FormatSensitivity(s *Sensitivity) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Memory-size sensitivity: %s (data = %d pages)", s.Bench, dataPagesOf(s)),
		"memory", "mem/data", "P elapsed", "B elapsed", "B speedup", "P stolen", "B released")
	for _, pt := range s.Points {
		p := pt.Elapsed[rt.ModePrefetch]
		b := pt.Elapsed[rt.ModeBuffered]
		t.AddRow(
			fmt.Sprintf("%d pages", pt.MemPages),
			fmt.Sprintf("%.2f", float64(pt.MemPages)/float64(pt.DataPages)),
			p.String(), b.String(),
			metrics.Ratio(float64(p), float64(b)),
			pt.Stolen[rt.ModePrefetch],
			pt.Released[rt.ModeBuffered])
	}
	t.AddNote("Expected shape: releasing matters most when memory is scarce; once the data")
	t.AddNote("fits (mem/data >= 1) both versions converge and the daemon goes idle anyway.")
	return t
}

func dataPagesOf(s *Sensitivity) int {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[0].DataPages
}
