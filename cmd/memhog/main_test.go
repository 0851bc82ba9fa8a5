package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestUsageListsEveryCommand pins the contract behind the registry:
// a subcommand cannot be dispatchable without appearing in the -h
// output (historically trace/chaos were added to the switch but not
// the help text).
func TestUsageListsEveryCommand(t *testing.T) {
	text := usageText()
	for _, c := range commands {
		re := regexp.MustCompile(`(^|\s)` + regexp.QuoteMeta(c.name) + `(\s|$)`)
		if !re.MatchString(text) {
			t.Errorf("subcommand %q missing from usage text:\n%s", c.name, text)
		}
		if c.brief == "" {
			t.Errorf("subcommand %q has no description", c.name)
		}
	}
	// The critical quartet from the issue must be registered at all.
	for _, name := range []string{"chaos", "chaosmatrix", "trace", "vet"} {
		found := false
		for _, c := range commands {
			if c.name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("expected subcommand %q to be registered", name)
		}
	}
}

// TestCommandNamesUnique guards against a registry entry shadowing
// another (dispatch takes the first match).
func TestCommandNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range commands {
		if seen[c.name] {
			t.Errorf("duplicate subcommand %q", c.name)
		}
		seen[c.name] = true
		if strings.TrimSpace(c.name) != c.name || c.name == "" {
			t.Errorf("malformed subcommand name %q", c.name)
		}
	}
}

// TestCPUProfile builds memhog and runs one command with and without
// -cpuprofile: the profile file is written and non-empty, and stdout is
// byte-identical.
func TestCPUProfile(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build memhog with")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "memhog")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(flags ...string) []byte {
		t.Helper()
		args := append(flags, "-quick", "-quiet", "run", "cgm")
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("memhog %s: %v", strings.Join(args, " "), err)
		}
		return out
	}
	prof := filepath.Join(dir, "cpu.pprof")
	plain, profiled := run(), run("-cpuprofile", prof)
	if !bytes.Equal(plain, profiled) {
		t.Errorf("stdout differs with -cpuprofile:\n%s\nvs\n%s", profiled, plain)
	}
	fi, err := os.Stat(prof)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("profile is empty")
	}
}
