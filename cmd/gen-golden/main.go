// Command gen-golden regenerates every golden-file family from one
// registry: the compiler's listings, the verifier's diagnostic
// listings (with benchmark parameters bound, so the residency
// certification evaluates at paper scale), the tampered dead-hint
// listing, and the hogflow residency certificates. Run it after an
// intentional change to the analysis or the checks and review the
// diff; main_test.go asserts a fresh run leaves the tree clean.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"memhogs/internal/compiler"
	"memhogs/internal/experiments"
	"memhogs/internal/hogvet"
	"memhogs/internal/kernel"
	"memhogs/internal/lang"
	"memhogs/internal/workload"
)

// family is one golden-file family: a name for -only selection and a
// generator returning path → content for every file the family owns.
type family struct {
	name string
	gen  func(root string, tgt compiler.Target) (map[string]string, error)
}

// families is the registry. Paths are relative to the repository
// root, where `go run ./cmd/gen-golden` runs.
func families() []family {
	return []family{
		{"compiler", genCompilerListings},
		{"hogvet", genHogvetListings},
		{"deadhint", genDeadHint},
		{"certfixtures", genCertFixtures},
		{"certificates", genCertificates},
		{"tierfixtures", genTierFixtures},
	}
}

// target is the shared compile target: the paper's full-size machine.
func target() compiler.Target {
	cfg := kernel.DefaultConfig()
	return compiler.DefaultTarget(cfg.PageSize, cfg.UserMemPages)
}

// generate runs every family and merges the outputs. Paths in the
// result are relative to root, which locates fixture inputs.
func generate(root string, tgt compiler.Target) (map[string]string, error) {
	out := map[string]string{}
	for _, f := range families() {
		files, err := f.gen(root, tgt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		for path, content := range files {
			if _, dup := out[path]; dup {
				return nil, fmt.Errorf("%s: duplicate golden path %s", f.name, path)
			}
			out[path] = content
		}
	}
	return out, nil
}

func genCompilerListings(_ string, tgt compiler.Target) (map[string]string, error) {
	out := map[string]string{}
	for _, s := range workload.All() {
		c, err := compiler.Compile(s.Program(nil), tgt)
		if err != nil {
			return nil, err
		}
		out["internal/compiler/testdata/"+s.Name+".golden"] = c.Listing()
	}
	return out, nil
}

func genHogvetListings(_ string, tgt compiler.Target) (map[string]string, error) {
	out := map[string]string{}
	for _, s := range workload.All() {
		c, err := compiler.Compile(s.Program(nil), tgt)
		if err != nil {
			return nil, err
		}
		out["internal/hogvet/testdata/"+s.Name+".golden"] = hogvet.VetParams(c, s.Params).String()
	}
	return out, nil
}

func genDeadHint(root string, tgt compiler.Target) (map[string]string, error) {
	src, err := os.ReadFile(filepath.Join(root, "internal/hogvet/testdata/deadhint.hog"))
	if err != nil {
		return nil, err
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		return nil, err
	}
	c, err := compiler.Compile(prog, tgt)
	if err != nil {
		return nil, err
	}
	hints, err := hogvet.TamperDeadHint(c, "b")
	if err != nil {
		return nil, err
	}
	ds := hogvet.VetSchedule(c.Prog, c.Target, hints, hogvet.DefaultOptions())
	return map[string]string{"internal/hogvet/testdata/deadhint.golden": ds.String()}, nil
}

// genCertFixtures regenerates the residency-certification fixture
// goldens: hand-written programs pinning HV011 (overflow), HV012
// (deadwindow), and HV013 (uncert), one diagnostic listing each.
func genCertFixtures(root string, tgt compiler.Target) (map[string]string, error) {
	out := map[string]string{}
	for _, name := range []string{"overflow", "deadwindow", "uncert"} {
		src, err := os.ReadFile(filepath.Join(root, "internal/hogvet/testdata/"+name+".hog"))
		if err != nil {
			return nil, err
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			return nil, err
		}
		c, err := compiler.Compile(prog, tgt)
		if err != nil {
			return nil, err
		}
		out["internal/hogvet/testdata/"+name+".golden"] = hogvet.VetParams(c, nil).String()
	}
	return out, nil
}

// genCertificates regenerates the hogflow residency certificates:
// each benchmark's file holds exactly what `memhog certify <bench>`
// prints on the paper-scale machine, one section per DRAM:far ratio
// of the tiering campaign (the 1:0 section certifies the single-tier
// world). `make certify` diffs the command against these listings.
func genCertificates(_ string, _ compiler.Target) (map[string]string, error) {
	out := map[string]string{}
	for _, s := range workload.All() {
		listing, err := experiments.CertifyListing(s, kernel.DefaultConfig())
		if err != nil {
			return nil, err
		}
		out["internal/footprint/testdata/"+s.Name+".cert.golden"] = listing
	}
	return out, nil
}

// Tier-fixture certification options, mirrored by
// internal/hogvet/tierfixtures_test.go: a 1200-page far tier (the far
// share of a 3:1 split of the 4800-page allotment) behind the
// kernel's default min-prio 1 demotion gate.
const (
	tierFixtureFarPages = 1200
	tierFixtureMinPrio  = 1
)

// genTierFixtures regenerates the two-tier certification fixture
// goldens: hand-written programs pinning HV014 (faroverflow), HV015
// (thrash), and HV016 (deadthresh), one diagnostic listing each.
func genTierFixtures(root string, tgt compiler.Target) (map[string]string, error) {
	out := map[string]string{}
	for _, name := range []string{"faroverflow", "thrash", "deadthresh"} {
		src, err := os.ReadFile(filepath.Join(root, "internal/hogvet/testdata/"+name+".hog"))
		if err != nil {
			return nil, err
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			return nil, err
		}
		c, err := compiler.Compile(prog, tgt)
		if err != nil {
			return nil, err
		}
		ds := hogvet.VetParamsFar(c, nil, tierFixtureFarPages, tierFixtureMinPrio)
		out["internal/hogvet/testdata/"+name+".golden"] = ds.String()
	}
	return out, nil
}

func main() {
	files, err := generate(".", target())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := os.WriteFile(p, []byte(files[p]), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("wrote", p)
	}
}
