package experiments

import (
	"fmt"

	"memhogs/internal/compiler"
	"memhogs/internal/metrics"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
)

// Table1 renders the hardware characteristics of the modelled platform
// (the paper's Table 1).
func Table1(o Opts) *metrics.Table {
	cfg := o.kernelConfig()
	t := metrics.NewTable("Table 1: experimental platform (modelled)",
		"characteristic", "value")
	t.AddRow("machine", "SGI Origin 200 (simulated)")
	t.AddRow("processors", fmt.Sprintf("%d x %d MHz", cfg.NCPU, cfg.CPUMHz))
	t.AddRow("user-available memory", metrics.MB(cfg.MemBytes()))
	t.AddRow("page size", fmt.Sprintf("%d KB", cfg.PageSize>>10))
	t.AddRow("swap", fmt.Sprintf("striped over %d disks on %d adapters",
		cfg.Disk.NumDisks, cfg.Disk.NumAdapters))
	t.AddRow("disk positioning", fmt.Sprintf("%v-%v (%v near-sequential)",
		cfg.Disk.PosTimeMin, cfg.Disk.PosTimeMax, cfg.Disk.SeqPosTime))
	t.AddRow("page transfer", cfg.Disk.TransferTime.String())
	t.AddRow("min_freemem / desfree", fmt.Sprintf("%d / %d pages",
		cfg.MinFreePages, cfg.TargetFreePages))
	t.AddRow("swap-in clustering", fmt.Sprintf("%d pages", cfg.VM.Readahead))
	return t
}

// Table2 renders the benchmark characteristics (the paper's Table 2):
// data-set sizes and what the compiler found in each program.
func Table2(o Opts) (*metrics.Table, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	cfg := o.kernelConfig()
	t := metrics.NewTable("Table 2: benchmark characteristics",
		"benchmark", "data set", "pages", "refs", "indirect", "pf dirs", "rel dirs", "reuse-prio", "unknown-bound loops", "access pattern")
	for _, spec := range specs {
		tgt := compiler.DefaultTarget(cfg.PageSize, cfg.UserMemPages)
		comp, err := compiler.Compile(spec.Program(nil), tgt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		img, err := comp.Bind(spec.Params)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		st := comp.Stats
		t.AddRow(spec.Name, metrics.MB(img.DataBytes), img.TotalPages,
			st.Refs, st.IndirectRefs, st.PrefetchDirs, st.ReleaseDirs,
			st.ReusePrioReleases, st.UnknownBoundLoops, spec.Pattern)
	}
	return t, nil
}

// Table3 renders the paging-daemon activity with and without releasing
// (the paper's Table 3): activations and pages stolen for the original
// program vs the prefetch-and-release version.
func Table3(v *Versions) *metrics.Table {
	t := metrics.NewTable("Table 3: page reclamation activity (original vs prefetch+release)",
		"benchmark",
		"daemon ops (O)", "pages stolen (O)",
		"daemon ops (R)", "pages stolen (R)",
		"pages released (R)")
	for _, spec := range v.Specs {
		o := v.Results[spec.Name][rt.ModeOriginal]
		r := v.Results[spec.Name][rt.ModeAggressive]
		t.AddRow(spec.Name,
			o.Daemon.Activations, o.Daemon.Stolen,
			r.Daemon.Activations, r.Daemon.Stolen,
			r.Releaser.Freed)
	}
	t.AddNote("Releasing should cut daemon activity by large factors (paper: 2x-100x).")
	return t
}

// LockTable renders the memory-lock contention behind the paper's
// §4.3 observation: "the time to handle these page faults is also
// inflated by increased lock contention" — the paging daemon holds
// address-space locks for long batches, the releaser for short ones.
func LockTable(v *Versions) *metrics.Table {
	t := metrics.NewTable("Memory-lock contention on the out-of-core address space",
		"benchmark", "ver", "acquisitions", "contended", "total wait", "total hold", "wait/acq")
	for _, spec := range v.Specs {
		for _, mode := range Modes {
			r := v.Results[spec.Name][mode]
			perAcq := sim.Time(0)
			if r.MemlockAcquisitions > 0 {
				perAcq = r.MemlockWait / sim.Time(r.MemlockAcquisitions)
			}
			t.AddRow(spec.Name, mode.String(),
				r.MemlockAcquisitions, r.MemlockContended,
				r.MemlockWait.String(), r.MemlockHold.String(), perAcq.String())
		}
	}
	t.AddNote("Expected shape: releasing cuts both the contended count and the per-acquisition")
	t.AddNote("wait, because the releaser's short batches replace the daemon's long scans.")
	return t
}
