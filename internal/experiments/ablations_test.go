package experiments

import (
	"fmt"
	"testing"

	"memhogs/internal/compiler"
	"memhogs/internal/driver"
	"memhogs/internal/metrics"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/workload"
)

// ablation is one run of the ablation grid: a benchmark × version cell
// with at most one RunConfig setting changed from the campaign's base
// config. A nil set is the default configuration; each default cell
// runs once and every ablation that compares against it shares it.
type ablation struct {
	cell
	setting string
	set     func(*driver.RunConfig)
}

func (a ablation) String() string { return a.cell.String() + " " + a.setting }

// ablationCells lists the grid, grouped by the default cell each
// ablation varies. The defaults are the paper's design: release batch
// 100, 8 prefetch workers, readahead 8, lazy shared-page updates with
// no notify threshold, free-list rescue, software reference bits, and
// aggressive, non-adaptive code generation.
func ablationCells(t *testing.T) []ablation {
	spec := func(name string) *workload.Spec {
		s, err := workload.ScaledByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var cells []ablation
	sweep := func(bench string, mode rt.Mode, settings ...ablation) {
		c := cell{spec(bench), mode}
		cells = append(cells, ablation{cell: c, setting: "default"})
		for _, s := range settings {
			s.cell = c
			cells = append(cells, s)
		}
	}
	with := func(setting string, set func(*driver.RunConfig)) ablation {
		return ablation{setting: setting, set: set}
	}
	target := func(setting string, tweak func(*compiler.Target)) ablation {
		return with(setting, func(c *driver.RunConfig) { c.TargetTweak = tweak })
	}
	workers := func(n int) ablation {
		return with(fmt.Sprintf("workers=%d", n), func(c *driver.RunConfig) { c.RT.Workers = n })
	}
	batch := func(n int) ablation {
		return with(fmt.Sprintf("batch=%d", n), func(c *driver.RunConfig) { c.RT.ReleaseBatch = n })
	}
	threshold := func(n int) ablation {
		return with(fmt.Sprintf("threshold=%d", n), func(c *driver.RunConfig) { c.Kernel.PM.NotifyThreshold = n })
	}
	readahead := func(n int) ablation {
		return with(fmt.Sprintf("readahead=%d", n), func(c *driver.RunConfig) { c.Kernel.VM.Readahead = n })
	}
	adaptive := target("adaptive", func(tg *compiler.Target) { tg.Adaptive = true })

	sweep("matvec", rt.ModeAggressive, target("conservative", func(tg *compiler.Target) { tg.Aggressive = false }))
	sweep("matvec", rt.ModeBuffered, with("immediate", func(c *driver.RunConfig) { c.Kernel.PM.ImmediateUpdates = true }))
	sweep("matvec", rt.ModePrefetch, workers(1), workers(4), workers(16))
	sweep("fftpde", rt.ModeBuffered, batch(10), batch(1000), threshold(16), threshold(64), adaptive)
	sweep("mgrid", rt.ModeAggressive, with("no-rescue", func(c *driver.RunConfig) { c.Kernel.VM.NoRescue = true }))
	sweep("mgrid", rt.ModeBuffered, adaptive)
	sweep("buk", rt.ModePrefetch, with("hw-refbits", func(c *driver.RunConfig) { c.Kernel.VM.HardwareRefBits = true }))
	sweep("embar", rt.ModeOriginal, readahead(1), readahead(4), readahead(16))

	// Reactive vs proactive (§2.2) is a comparison under the
	// interactive workload, so both versions run it as their setting.
	interactive := func(c *driver.RunConfig) {
		c.Repeat = true
		c.Horizon = 15 * sim.Second
		c.InteractiveSleep = 2 * sim.Second
	}
	for _, mode := range []rt.Mode{rt.ModeReactive, rt.ModeBuffered} {
		cells = append(cells, ablation{cell{spec("matvec"), mode}, "interactive", interactive})
	}
	return cells
}

// runAblations runs the grid through the campaign engine and renders
// it, returning each cell's result by its label.
func runAblations(t *testing.T, workers int) (string, map[string]*driver.Result) {
	o := Quick()
	o.Workers = workers
	cache := driver.NewCompileCache()
	cells := ablationCells(t)
	res, err := runCells(o, cells,
		func(a ablation) string { return "ablation " + a.String() },
		func(a ablation) (*driver.Result, string, error) {
			cfg := o.runConfig(a.mode, cache)
			if a.set != nil {
				a.set(&cfg)
			}
			r, err := driver.Run(a.spec, cfg)
			if err != nil {
				return nil, "", err
			}
			return r, r.Elapsed.String(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	tbl := metrics.NewTable("Ablations (scaled machine)",
		"cell", "setting", "elapsed", "hard", "page-ins", "daemon soft", "rel rescued",
		"releaser freed", "stolen", "donated", "refreshes", "response")
	byLabel := map[string]*driver.Result{}
	for i, a := range cells {
		r := res[i]
		byLabel[a.String()] = r
		response := "-"
		if r.Interactive.Enabled {
			response = r.Interactive.MeanResponse.String()
		}
		tbl.AddRow(a.cell.String(), a.setting, r.Elapsed.String(), r.VM.HardFaults, r.VM.PageIns,
			r.VM.SoftFaultsDaemon, r.Phys.RescuedRelease, r.Releaser.Freed, r.Daemon.Stolen,
			r.Daemon.Donated, r.PM.SharedRefreshes, response)
	}
	tbl.AddNote("default: release batch 100, 8 prefetch workers, readahead 8, lazy shared page,")
	tbl.AddNote("no notify threshold, rescue on, software reference bits, aggressive non-adaptive codegen.")
	return tbl.String(), byLabel
}

// TestAblations runs the design choices the paper leaves open, and the
// ones its closing questions raise, as one campaign; it asserts each
// claim EXPERIMENTS.md makes as a relation between cells and pins the
// rendered table. `go test -run TestAblations -v` prints it.
func TestAblations(t *testing.T) {
	out, r := runAblations(t, 1)
	if parallel, _ := runAblations(t, 4); parallel != out {
		t.Fatalf("ablation table differs between -j1 and -j4:\n--- serial ---\n%s\n--- parallel ---\n%s", out, parallel)
	}
	t.Log("\n" + out)
	checkDigest(t, "ablations", out, "b8231a1674d59bd7234479e9af77983875b52a48151b68b1033448f674d38418")

	get := func(label string) *driver.Result {
		t.Helper()
		res, ok := r[label]
		if !ok {
			t.Fatalf("no ablation cell %q", label)
		}
		return res
	}
	// near reports whether two elapsed times are within 1%.
	near := func(a, b sim.Time) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return 100*d <= a
	}

	// Buffering: B avoids the vector rescues R takes on MATVEC, and so
	// does the conservative insertion policy (§2.3.2).
	if rr, b, c := get("matvec/R default"), get("matvec/B default"), get("matvec/R conservative"); rr.Phys.RescuedRelease == 0 ||
		b.Phys.RescuedRelease != 0 || c.Phys.RescuedRelease != 0 {
		t.Errorf("release rescues R=%d B=%d conservative=%d, want R>0 and the others 0",
			rr.Phys.RescuedRelease, b.Phys.RescuedRelease, c.Phys.RescuedRelease)
	}

	// Release batch: a larger batch drains more per trigger at the
	// same elapsed time.
	b10, b100, b1000 := get("fftpde/B batch=10"), get("fftpde/B default"), get("fftpde/B batch=1000")
	if !(b10.Releaser.Freed < b100.Releaser.Freed && b100.Releaser.Freed < b1000.Releaser.Freed) {
		t.Errorf("releaser freed at batch 10/100/1000 = %d/%d/%d, want strictly rising",
			b10.Releaser.Freed, b100.Releaser.Freed, b1000.Releaser.Freed)
	}
	if !near(b100.Elapsed, b10.Elapsed) || !near(b100.Elapsed, b1000.Elapsed) {
		t.Errorf("elapsed at batch 10/100/1000 = %v/%v/%v, want within 1%%", b10.Elapsed, b100.Elapsed, b1000.Elapsed)
	}

	// Prefetch workers: the scaled machine's two disks saturate with
	// one worker.
	w8 := get("matvec/P default")
	for _, n := range []int{1, 4, 16} {
		if w := get(fmt.Sprintf("matvec/P workers=%d", n)); !near(w8.Elapsed, w.Elapsed) {
			t.Errorf("elapsed with %d workers %v vs 8 workers %v, want within 1%%", n, w.Elapsed, w8.Elapsed)
		}
	}

	// Shared page: immediate updates cost refreshes, not time.
	if lazy, imm := get("matvec/B default"), get("matvec/B immediate"); imm.PM.SharedRefreshes <= lazy.PM.SharedRefreshes ||
		imm.Elapsed != lazy.Elapsed {
		t.Errorf("immediate %d refreshes in %v vs lazy %d in %v, want more refreshes at equal elapsed",
			imm.PM.SharedRefreshes, imm.Elapsed, lazy.PM.SharedRefreshes, lazy.Elapsed)
	}

	// Threshold notification: 16 pages adds refreshes; 64 never fires.
	if t16, t64 := get("fftpde/B threshold=16"), get("fftpde/B threshold=64"); t16.PM.SharedRefreshes <= b100.PM.SharedRefreshes ||
		t64.PM.SharedRefreshes != b100.PM.SharedRefreshes {
		t.Errorf("refreshes lazy/threshold 16/threshold 64 = %d/%d/%d, want 16 above lazy and 64 equal to it",
			b100.PM.SharedRefreshes, t16.PM.SharedRefreshes, t64.PM.SharedRefreshes)
	}

	// Rescue off: freed pages come back from swap instead.
	if on, off := get("mgrid/R default"), get("mgrid/R no-rescue"); off.VM.PageIns <= on.VM.PageIns || off.Elapsed <= on.Elapsed {
		t.Errorf("no-rescue %d page-ins in %v vs rescue %d in %v, want more of both",
			off.VM.PageIns, off.Elapsed, on.VM.PageIns, on.Elapsed)
	}

	// Hardware reference bits remove the daemon's soft faults but not
	// elapsed time.
	if sw, hw := get("buk/P default"), get("buk/P hw-refbits"); sw.VM.SoftFaultsDaemon == 0 || hw.VM.SoftFaultsDaemon != 0 ||
		!near(sw.Elapsed, hw.Elapsed) {
		t.Errorf("daemon soft faults software %d in %v, hardware %d in %v; want >0 then 0 at elapsed within 1%%",
			sw.VM.SoftFaultsDaemon, sw.Elapsed, hw.VM.SoftFaultsDaemon, hw.Elapsed)
	}

	// Swap clustering: hard faults strictly fall with depth.
	depths := []string{"readahead=1", "readahead=4", "default", "readahead=16"}
	for i := 1; i < len(depths); i++ {
		prev, cur := get("embar/O "+depths[i-1]), get("embar/O "+depths[i])
		if cur.VM.HardFaults >= prev.VM.HardFaults {
			t.Errorf("hard faults %s %d -> %s %d, want strictly falling", depths[i-1], prev.VM.HardFaults, depths[i], cur.VM.HardFaults)
		}
	}

	// Adaptive codegen: fixes FFTPDE's stolen pages and MGRID's
	// rescued releases.
	if base, ad := b100, get("fftpde/B adaptive"); ad.Daemon.Stolen >= base.Daemon.Stolen {
		t.Errorf("fftpde adaptive stolen %d, baseline %d: want fewer", ad.Daemon.Stolen, base.Daemon.Stolen)
	}
	if base, ad := get("mgrid/B default"), get("mgrid/B adaptive"); ad.Phys.RescuedRelease >= base.Phys.RescuedRelease {
		t.Errorf("mgrid adaptive rescues %d, baseline %d: want fewer", ad.Phys.RescuedRelease, base.Phys.RescuedRelease)
	}

	// Reactive vs proactive (§2.2): the reactive scheme fails to
	// protect the interactive task, and only it donates pages.
	if re, pro := get("matvec/V interactive"), get("matvec/B interactive"); re.Interactive.MeanResponse <= 100*pro.Interactive.MeanResponse ||
		re.Daemon.Donated == 0 || pro.Daemon.Donated != 0 {
		t.Errorf("reactive response %v donated %d, proactive %v donated %d; want >100x and donations only under reactive",
			re.Interactive.MeanResponse, re.Daemon.Donated, pro.Interactive.MeanResponse, pro.Daemon.Donated)
	}
}
