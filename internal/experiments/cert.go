package experiments

import (
	"fmt"
	"strings"

	"memhogs/internal/compiler"
	"memhogs/internal/driver"
	"memhogs/internal/footprint"
	"memhogs/internal/hogvet"
	"memhogs/internal/kernel"
	"memhogs/internal/metrics"
	"memhogs/internal/rt"
	"memhogs/internal/workload"
)

// CertifyListing renders a benchmark's residency certificates at every
// DRAM:far ratio of TieringRatios, one "==== name @ D:F ====" section
// each: the machine's memory budget is split by the ratio, the full
// hint schedule recompiles against the DRAM share, and the report
// carries all four O/P/R/B interpretations. The 1:0 section is the
// single-tier certificate; the others add the far-tier occupancy and
// demotion-flow bounds. The output is a pure function of the spec and
// the machine, so it is byte-identical across runs and worker counts.
func CertifyListing(spec *workload.Spec, kcfg kernel.Config) (string, error) {
	var b strings.Builder
	for _, ratio := range TieringRatios {
		dram, far := ratio.Split(kcfg.UserMemPages)
		tgt := compiler.DefaultTarget(kcfg.PageSize, dram)
		tgt.Prefetch = true
		tgt.Release = true
		prog := spec.Program(nil)
		comp, err := compiler.Compile(prog, tgt)
		if err != nil {
			return "", fmt.Errorf("compile %s: %w", spec.Name, err)
		}
		opts := footprint.Opts{Params: spec.Params, FarPages: far, FarMinPrio: kcfg.Far.MinPrio}
		certs := map[footprint.Version]*footprint.Certificate{}
		for _, v := range footprint.Versions() {
			certs[v] = footprint.Certify(prog, tgt, comp.Hints(), v, opts)
		}
		fmt.Fprintf(&b, "==== %s @ %s ====\n%s\n", spec.Name, ratio, footprint.Report(certs))
	}
	return b.String(), nil
}

// certTightFrac is the declared tightness slack for the residency
// certificates: on the affine benchmarks, in the versions where the
// certificate claims the process fills its allotment (O and P, which
// never release), the observed peak must come within 15% of the
// certified bound. The releasing versions' certificates are sound
// upper bounds with deliberate pipeline slack, so tightness is not
// declared for them; nor is it declared under a far tier, where the
// shrunken DRAM share leaves the prefetch pipeline's slack a larger
// fraction of the bound.
const certTightFrac = 0.85

// affineBenches are the benchmarks whose certificates carry no ⊤
// windows at paper scale: every reference is affine with
// compile-time-known strides, so the bound is exact analysis, not a
// whole-array fallback.
var affineBenches = map[string]bool{"matvec": true, "embar": true}

// certModes is the cross-validation's mode axis: the paper's four
// versions plus Reactive, so every run-time mode is checked against
// its certificate.
var certModes = []rt.Mode{rt.ModeOriginal, rt.ModePrefetch, rt.ModeAggressive, rt.ModeReactive, rt.ModeBuffered}

// modeVersion maps a run-time mode to the certificate interpretation
// that soundly bounds it. Reactive is judged by P: it compiles with
// release hints (so its schedule is Buffered's) but never issues a
// release pro-actively at run time — pages leave only via daemon
// donation, which bypasses the releaser's demotion path — so its
// resident set is bounded by the everything-stays interpretation and
// its far-tier occupancy is exactly zero, which P's empty far
// certificate states. The B bound would be unsound for its DRAM side.
func modeVersion(m rt.Mode) footprint.Version {
	switch m {
	case rt.ModeOriginal:
		return footprint.VersionO
	case rt.ModePrefetch, rt.ModeReactive:
		return footprint.VersionP
	case rt.ModeAggressive:
		return footprint.VersionR
	case rt.ModeBuffered:
		return footprint.VersionB
	}
	panic(fmt.Sprintf("experiments: no certificate version for mode %d", m))
}

// CertCell is one benchmark × mode × DRAM:far ratio of the
// static-vs-dynamic residency comparison.
type CertCell struct {
	Bench   string
	Mode    rt.Mode
	Version footprint.Version
	Ratio   TierRatio

	DRAMPages int // DRAM share of the split budget
	FarPages  int // far share (0 at the 1:0 baseline)

	BoundPages      int64 // interpreted DRAM bound (-1 unresolved)
	CertifiedPages  int64 // clamped DRAM certificate
	Clamped         bool
	FarBoundPages   int64 // interpreted far-tier bound (-1 unresolved)
	FarCertified    int64 // far bound clamped at the tier size
	ObservedPeak    int64 // observed peak resident (DRAM) pages
	ObservedFarPeak int64 // observed peak far-tier pages

	SoundDRAM     bool // ObservedPeak ≤ CertifiedPages
	SoundFar      bool // ObservedFarPeak ≤ FarCertified
	TightDeclared bool // this cell is under the 15% tightness contract
	Tight         bool // ObservedPeak ≥ certTightFrac · CertifiedPages
	HV014         bool // hogvet's far-overflow fired for this cell's schedule
}

// CertCrossValidation is the dataset behind the residency-certificate
// validation: every benchmark × mode × DRAM:far ratio cell, run once,
// next to its DRAM and far-tier certificates.
type CertCrossValidation struct {
	Opts Opts
	Rows []CertCell // spec-major, mode-middle, ratio-minor
}

// RunCertCrossValidation certifies every benchmark × mode × DRAM:far
// ratio cell statically against the split budget and runs it once,
// comparing both tiers' observed peaks (the VM's PeakResident and
// PeakFarResident) against their certificates. The cells run on the campaign
// worker pool, so the rows are identical at any worker count.
func RunCertCrossValidation(o Opts) (*CertCrossValidation, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	kcfg := o.kernelConfig()
	cache := driver.NewCompileCache()
	rows, err := runCells(o, tierCells(specs, certModes),
		func(c tierCell) string { return "certify " + c.String() },
		func(c tierCell) (CertCell, string, error) {
			// The certificate interprets the same compilation the run
			// executes, against the same split budget.
			cfg := o.tieringConfig(c.mode, c.ratio, cache)
			dram, far := cfg.Kernel.UserMemPages, cfg.Kernel.Far.Pages
			tgt := driver.Target(cfg.Kernel, c.mode)
			comp, err := cache.Compile(c.spec, nil, tgt)
			if err != nil {
				return CertCell{}, "", fmt.Errorf("compile: %w", err)
			}
			ver := modeVersion(c.mode)
			fopts := footprint.Opts{Params: c.spec.Params, FarPages: far, FarMinPrio: kcfg.Far.MinPrio}
			cert := footprint.Certify(comp.Prog, tgt, comp.Hints(), ver, fopts)

			// hogvet's far-overflow verdict for the cell, through the
			// verifier's own path.
			hv014 := false
			if far > 0 && len(comp.Hints()) > 0 {
				vopts := hogvet.DefaultOptions()
				vopts.Params = c.spec.Params
				vopts.FarPages = far
				vopts.FarMinPrio = kcfg.Far.MinPrio
				for _, d := range hogvet.VetSchedule(comp.Prog, tgt, comp.Hints(), vopts) {
					if d.Code == "HV014" {
						hv014 = true
					}
				}
			}

			r, err := driver.Run(c.spec, cfg)
			if err != nil {
				return CertCell{}, "", err
			}

			row := CertCell{
				Bench:           c.spec.Name,
				Mode:            c.mode,
				Version:         ver,
				Ratio:           c.ratio,
				DRAMPages:       dram,
				FarPages:        far,
				BoundPages:      cert.BoundPages,
				CertifiedPages:  cert.CertifiedPages,
				Clamped:         cert.Clamped,
				FarBoundPages:   cert.FarBoundPages,
				FarCertified:    cert.FarCertifiedPages,
				ObservedPeak:    r.VM.PeakResident,
				ObservedFarPeak: r.VM.PeakFarResident,
				HV014:           hv014,
			}
			row.SoundDRAM = row.ObservedPeak <= row.CertifiedPages
			row.SoundFar = row.ObservedFarPeak <= row.FarCertified
			row.TightDeclared = affineBenches[c.spec.Name] && !ver.UsesRelease() && far == 0
			row.Tight = float64(row.ObservedPeak) >= certTightFrac*float64(row.CertifiedPages)
			return row, fmt.Sprintf("dram %d/%d, far %d/%d",
				row.ObservedPeak, row.CertifiedPages, row.ObservedFarPeak, row.FarCertified), nil
		})
	if err != nil {
		return nil, err
	}
	return &CertCrossValidation{Opts: o, Rows: rows}, nil
}

// Validate returns the first violated contract. Per cell: both tiers
// are sound; the non-releasing versions certify and observe an exactly
// empty far tier; hogvet's HV014 verdict on B cells agrees with the
// certified far bound against the configured tier; and the declared
// cells are tight within the 15% slack. Over the grid: on the
// streaming benchmarks B certifies strictly below O at 1:0 (the point
// of the paper), and the sweep is not vacuous — HV014 both fires and
// stays clean somewhere, and some cell fills the far tier.
func (cv *CertCrossValidation) Validate() error {
	var fired, clean, farObserved bool
	orig := map[string]CertCell{} // each benchmark's O cell at 1:0
	for _, c := range cv.Rows {
		if !c.SoundDRAM {
			return fmt.Errorf("%s/%s@%s: observed DRAM peak %d pages exceeds certified %d",
				c.Bench, c.Mode, c.Ratio, c.ObservedPeak, c.CertifiedPages)
		}
		if !c.SoundFar {
			return fmt.Errorf("%s/%s@%s: observed far peak %d pages exceeds certified %d",
				c.Bench, c.Mode, c.Ratio, c.ObservedFarPeak, c.FarCertified)
		}
		if !c.Version.UsesRelease() {
			if c.FarCertified != 0 {
				return fmt.Errorf("%s/%s@%s: non-releasing version certifies far peak %d, want 0",
					c.Bench, c.Mode, c.Ratio, c.FarCertified)
			}
			if c.ObservedFarPeak != 0 {
				return fmt.Errorf("%s/%s@%s: non-releasing version demoted %d pages to the far tier",
					c.Bench, c.Mode, c.Ratio, c.ObservedFarPeak)
			}
		}
		if c.Version == footprint.VersionB {
			want := c.FarPages > 0 && c.FarBoundPages >= 0 && c.FarBoundPages > int64(c.FarPages)
			if c.HV014 != want {
				return fmt.Errorf("%s/%s@%s: HV014 fired=%v, but far bound %d vs tier %d says %v",
					c.Bench, c.Mode, c.Ratio, c.HV014, c.FarBoundPages, c.FarPages, want)
			}
			if c.FarPages > 0 {
				fired = fired || c.HV014
				clean = clean || !c.HV014
			}
		}
		if c.TightDeclared && !c.Tight {
			return fmt.Errorf("%s/%s@%s: certificate %d pages is not tight: observed peak %d below %d%% slack",
				c.Bench, c.Mode, c.Ratio, c.CertifiedPages, c.ObservedPeak, int(100*(1-certTightFrac)))
		}
		farObserved = farObserved || c.ObservedFarPeak > 0
		if c.FarPages == 0 && c.Version == footprint.VersionO {
			orig[c.Bench] = c
		}
	}
	for _, b := range cv.Rows {
		if b.FarPages != 0 || b.Version != footprint.VersionB || !affineBenches[b.Bench] {
			continue
		}
		if o := orig[b.Bench]; b.Clamped || b.CertifiedPages >= o.CertifiedPages {
			return fmt.Errorf("%s/%s@%s: B certificate %d (clamped=%v) should beat O's %d",
				b.Bench, b.Mode, b.Ratio, b.CertifiedPages, b.Clamped, o.CertifiedPages)
		}
	}
	if !fired || !clean {
		return fmt.Errorf("vacuous HV014 sweep: fired=%v clean=%v", fired, clean)
	}
	if !farObserved {
		return fmt.Errorf("vacuous run: no cell ever placed a page in the far tier")
	}
	return nil
}

// FormatCertCrossValidation renders the static-vs-dynamic residency
// table: one row per benchmark × mode × ratio.
func FormatCertCrossValidation(cv *CertCrossValidation) *metrics.Table {
	t := metrics.NewTable("hogflow cross-validation: certified vs observed peak pages, per tier",
		"benchmark", "mode", "cert", "ratio", "dram bound", "dram cert", "dram obs",
		"far cert", "far obs", "sound", "tight", "HV014")
	for _, c := range cv.Rows {
		bound := fmt.Sprintf("%d", c.BoundPages)
		if c.BoundPages < 0 {
			bound = "?"
		}
		if c.Clamped {
			bound += " (clamped)"
		}
		sound := "yes"
		if !c.SoundDRAM || !c.SoundFar {
			sound = "NO"
		}
		tight := "-"
		if c.TightDeclared {
			tight = "yes"
			if !c.Tight {
				tight = "NO"
			}
		}
		hv := "-"
		if c.HV014 {
			hv = "fires"
		}
		t.AddRow(c.Bench, c.Mode.String(), c.Version.String(), c.Ratio.String(), bound,
			c.CertifiedPages, c.ObservedPeak, c.FarCertified, c.ObservedFarPeak, sound, tight, hv)
	}
	t.AddNote("Sound: neither tier's observed peak exceeds its certificate.")
	t.AddNote("Tight (affine benchmarks, non-releasing versions, 1:0): observed within %d%% of certified.",
		int(100*(1-certTightFrac)))
	t.AddNote("HV014: hogvet proves the far-tier bound exceeds the configured tier at this ratio.")
	return t
}
