package driver

import (
	"strings"
	"testing"

	"memhogs/internal/compiler"
	"memhogs/internal/rt"
	"memhogs/internal/workload"
)

// TestRejectsConfigsEntryPointsCannotHonour checks that every entry
// point refuses, before booting anything, a configuration it would
// otherwise silently ignore or misrun.
func TestRejectsConfigsEntryPointsCannotHonour(t *testing.T) {
	spec, err := workload.ScaledByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	// Compiled for Original: no prefetch, no release hints.
	base := TestRunConfig(rt.ModeOriginal)
	plain, err := base.compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		want string // substring of the error
		run  func() error
	}{
		{"Run RT.Mode mismatch", "RT.Mode", func() error {
			cfg := TestRunConfig(rt.ModeBuffered)
			cfg.RT = rt.DefaultConfig(rt.ModePrefetch)
			_, err := Run(spec, cfg)
			return err
		}},
		{"RunCompiled target without hints for a releasing mode", "compiled with", func() error {
			_, err := RunCompiled("matvec", plain, TestRunConfig(rt.ModeBuffered))
			return err
		}},
		{"RunCompiled target with hints for Original", "compiled with", func() error {
			cfg := TestRunConfig(rt.ModeOriginal)
			comp, err := compiler.Compile(spec.Program(nil), compiler.DefaultTarget(cfg.Kernel.PageSize, cfg.Kernel.UserMemPages))
			if err != nil {
				return err
			}
			cfg.Params = spec.Params
			_, err = RunCompiled("matvec", comp, cfg)
			return err
		}},
		{"RunPair RT.Mode mismatch", "RT.Mode", func() error {
			cfg := TestRunConfig(rt.ModeAggressive)
			cfg.RT = rt.DefaultConfig(rt.ModeOriginal)
			_, _, err := RunPair(spec, spec, cfg)
			return err
		}},
		{"RunPair interactive task", "InteractiveSleep", func() error {
			cfg := TestRunConfig(rt.ModePrefetch)
			cfg.InteractiveSleep = 0
			_, _, err := RunPair(spec, spec, cfg)
			return err
		}},
		{"RunPair shared params", "Params", func() error {
			cfg := TestRunConfig(rt.ModePrefetch)
			cfg.Params = spec.Params
			_, _, err := RunPair(spec, spec, cfg)
			return err
		}},
		{"RunTenants RT.Mode mismatch", "RT.Mode", func() error {
			cfg := testTenantConfig()
			cfg.RT = rt.DefaultConfig(rt.ModeBuffered)
			_, err := RunTenants(spec, cfg)
			return err
		}},
		{"RunTenants interactive task", "InteractiveSleep", func() error {
			cfg := testTenantConfig()
			cfg.InteractiveSleep = 0
			_, err := RunTenants(spec, cfg)
			return err
		}},
		{"RunTenants without Repeat", "Repeat", func() error {
			cfg := testTenantConfig()
			cfg.Repeat = false
			_, err := RunTenants(spec, cfg)
			return err
		}},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
