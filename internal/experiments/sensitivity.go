package experiments

import (
	"fmt"
	"sync"

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
	sink := newProgressSink(o.Progress)
	probe, err := driver.Run(spec, o.runConfig(rt.ModeOriginal, cache))
	if err != nil {
		return nil, err
	}
	dataPages := probe.TotalPages

	sweepModes := []rt.Mode{rt.ModePrefetch, rt.ModeBuffered}
	s := &Sensitivity{Opts: o, Bench: bench, Points: make([]SensitivityPoint, len(fractions))}
	var jobs []job
	for i, frac := range fractions {
		pages := int(float64(dataPages) * frac)
		if pages < 64 {
			pages = 64
		}
		s.Points[i] = SensitivityPoint{
			MemPages:  pages,
			DataPages: dataPages,
			Elapsed:   map[rt.Mode]sim.Time{},
			Stolen:    map[rt.Mode]int64{},
			Released:  map[rt.Mode]int64{},
		}
		pt := &s.Points[i]
		var mu sync.Mutex // guards pt's maps across this point's two mode jobs
		for _, mode := range sweepModes {
			pages, mode := pages, mode
			jobs = append(jobs, job{
				label: fmt.Sprintf("sensitivity %s mem=%dp %s", bench, pages, mode),
				run: func() error {
					cfg := o.runConfig(mode, cache)
					cfg.Kernel.UserMemPages = pages
					// Keep the daemon thresholds proportionate.
					cfg.Kernel.MinFreePages = pages / 64
					if cfg.Kernel.MinFreePages < 8 {
						cfg.Kernel.MinFreePages = 8
					}
					cfg.Kernel.TargetFreePages = 4 * cfg.Kernel.MinFreePages
					cfg.Kernel.Daemon.MinFree = cfg.Kernel.MinFreePages
					cfg.Kernel.Daemon.TargetFree = cfg.Kernel.TargetFreePages
					cfg.Kernel.PM.MinFree = cfg.Kernel.MinFreePages
					r, err := driver.Run(spec, cfg)
					if err != nil {
						return fmt.Errorf("sensitivity %s mem=%d: %w", mode, pages, err)
					}
					mu.Lock()
					pt.Elapsed[mode] = r.Elapsed
					pt.Stolen[mode] = r.Daemon.Stolen
					pt.Released[mode] = r.Releaser.Freed
					mu.Unlock()
					sink.printf("sensitivity %s mem=%dp %s: %v\n", bench, pages, mode, r.Elapsed)
					return nil
				},
			})
		}
	}
	if err := runJobs(o, jobs); err != nil {
		return nil, err
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
