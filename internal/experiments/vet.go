package experiments

import (
	"fmt"

	"memhogs/internal/driver"
	"memhogs/internal/hogvet"
	"memhogs/internal/metrics"
	"memhogs/internal/rt"
)

// VetCorrelation pairs one class of static verifier findings on one
// benchmark with the run-time counter that class predicts, from an
// actual Buffered-mode run. OK means the prediction held: findings
// imply a nonzero counter.
type VetCorrelation struct {
	Bench    string
	Code     string // verifier check code, e.g. "HV006"
	Findings int    // findings of that code on the benchmark
	Counter  string // simulator counter the findings predict
	Observed int64  // the counter's value in the Buffered run
	OK       bool
}

// VetCrossValidation is the dataset behind the static-vs-dynamic
// comparison: every benchmark's verifier report next to its Buffered
// run.
type VetCrossValidation struct {
	Opts    Opts
	Reports map[string]hogvet.Diagnostics
	Runs    map[string]*driver.Result
	Rows    []VetCorrelation
	Clean   []string // benchmarks with no warning-or-above findings, in run order
}

// vetCounters maps each predictive check to the counter it claims will
// be nonzero at run time:
//
//	HV001 (release before last use)  -> rescued release-freed frames
//	                                    (the MGRID free-list rescues, Fig 9)
//	HV006 (false temporal reuse)     -> pages parked in the release
//	                                    buffer's priority queues (FFTPDE's
//	                                    wrongly retained pages, §4.5)
//	HV007 (hint flood)               -> hints dropped by the run-time
//	                                    filter (CGM/MGRID user time, §4.3)
func vetCounters(r *driver.Result) []struct {
	code, counter string
	observed      int64
} {
	return []struct {
		code, counter string
		observed      int64
	}{
		{"HV001", "rescued releases", r.Phys.RescuedRelease},
		{"HV006", "releases buffered", r.RT.ReleaseBuffered},
		{"HV007", "hints filtered", r.RT.PrefetchFiltered + r.RT.ReleaseDupDropped},
	}
}

// RunVetCrossValidation runs the verifier over every benchmark's
// compiled schedule and each benchmark once in Buffered mode, then
// checks that every predictive finding corresponds to a nonzero
// simulator counter. One cell per benchmark runs on the campaign
// worker pool; the correlation rows and the Clean list are assembled
// afterwards in benchmark order, so they are identical at any worker
// count.
func RunVetCrossValidation(o Opts) (*VetCrossValidation, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	type vetRun struct {
		report hogvet.Diagnostics
		run    *driver.Result
	}
	cache := driver.NewCompileCache()
	res, err := runCells(o, grid(specs, []rt.Mode{rt.ModeBuffered}),
		func(c cell) string { return "vet " + c.spec.Name },
		func(c cell) (vetRun, string, error) {
			// The verified schedule and the executed schedule are one
			// cached compilation: the Buffered run's target.
			cfg := o.runConfig(c.mode, cache)
			comp, err := cache.Compile(c.spec, nil, driver.Target(cfg.Kernel, cfg.Mode))
			if err != nil {
				return vetRun{}, "", fmt.Errorf("compile: %w", err)
			}
			report := hogvet.Vet(comp)
			r, err := driver.Run(c.spec, cfg)
			if err != nil {
				return vetRun{}, "", err
			}
			return vetRun{report, r}, report.Summary(), nil
		})
	if err != nil {
		return nil, err
	}
	cv := &VetCrossValidation{
		Opts:    o,
		Reports: map[string]hogvet.Diagnostics{},
		Runs:    map[string]*driver.Result{},
	}
	for i, spec := range specs {
		report, run := res[i].report, res[i].run
		cv.Reports[spec.Name] = report
		cv.Runs[spec.Name] = run
		if len(report.AtLeast(hogvet.Warning)) == 0 {
			cv.Clean = append(cv.Clean, spec.Name)
		}
		for _, c := range vetCounters(run) {
			n := len(report.ByCode(c.code))
			if n == 0 {
				continue
			}
			cv.Rows = append(cv.Rows, VetCorrelation{
				Bench: spec.Name, Code: c.code, Findings: n,
				Counter: c.counter, Observed: c.observed,
				OK: c.observed > 0,
			})
		}
	}
	return cv, nil
}

// FormatVetCrossValidation renders the static-vs-dynamic table: one
// row per (benchmark, predictive check), the counter it predicts, and
// whether the Buffered run confirmed it.
func FormatVetCrossValidation(cv *VetCrossValidation) *metrics.Table {
	t := metrics.NewTable("hogvet cross-validation: static findings vs Buffered-run counters",
		"benchmark", "check", "findings", "predicted counter", "observed", "confirmed")
	for _, row := range cv.Rows {
		ok := "yes"
		if !row.OK {
			ok = "NO"
		}
		t.AddRow(row.Bench, row.Code, row.Findings, row.Counter, row.Observed, ok)
	}
	t.AddNote("Each static finding class must map to a nonzero run-time counter on the")
	t.AddNote("flagged benchmark (no stale warnings).")
	if len(cv.Clean) > 0 {
		t.AddNote(fmt.Sprintf("Diagnostic-clean at warning level: %v.", cv.Clean))
	}
	return t
}
