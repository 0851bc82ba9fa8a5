package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"memhogs"
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

// TestUsageListsEveryExperiment: every catalogue id, the extras
// included, appears in the -h output.
func TestUsageListsEveryExperiment(t *testing.T) {
	text := usageText()
	for _, id := range memhogs.ExperimentIDs() {
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(id) + `\b`).MatchString(text) {
			t.Errorf("experiment %q missing from usage text:\n%s", id, text)
		}
	}
	if !strings.Contains(text, "locks") {
		t.Errorf("usage text leaves out the locks extra:\n%s", text)
	}
}

var built struct {
	once sync.Once
	bin  string
	err  error
}

// memhogBinary builds memhog once for the package's tests.
func memhogBinary(t *testing.T) string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build memhog with")
	}
	built.once.Do(func() {
		dir, err := os.MkdirTemp("", "memhog-test")
		if err != nil {
			built.err = err
			return
		}
		built.bin = filepath.Join(dir, "memhog")
		if out, err := exec.Command(gobin, "build", "-o", built.bin, ".").CombinedOutput(); err != nil {
			built.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if built.err != nil {
		t.Fatal(built.err)
	}
	return built.bin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if built.bin != "" {
		os.RemoveAll(filepath.Dir(built.bin))
	}
	os.Exit(code)
}

// TestCPUProfile runs one command with and without -cpuprofile: the
// profile file is written and non-empty, and stdout is byte-identical.
func TestCPUProfile(t *testing.T) {
	bin := memhogBinary(t)
	run := func(flags ...string) []byte {
		t.Helper()
		args := append(flags, "-quick", "-quiet", "run", "cgm")
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("memhog %s: %v", strings.Join(args, " "), err)
		}
		return out
	}
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
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

// TestSeveralNames: `memhog table1 table2` prints what `memhog table1`
// and then `memhog table2` print, and a list with an unknown name in
// it exits 1 before running a campaign: no output, no progress line.
func TestSeveralNames(t *testing.T) {
	bin := memhogBinary(t)
	run := func(names ...string) []byte {
		t.Helper()
		out, err := exec.Command(bin, append([]string{"-quick", "-quiet"}, names...)...).Output()
		if err != nil {
			t.Fatalf("memhog %s: %v", strings.Join(names, " "), err)
		}
		return out
	}
	both := run("table1", "table2")
	if want := append(run("table1"), run("table2")...); !bytes.Equal(both, want) {
		t.Errorf("memhog table1 table2:\n%s\nwant the two single outputs:\n%s", both, want)
	}
	cmd := exec.Command(bin, "-quick", "fig7", "nosuch")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("memhog fig7 nosuch: %v, want exit status 1", err)
	}
	if len(out) != 0 || strings.Count(stderr.String(), "\n") != 1 {
		t.Errorf("memhog fig7 nosuch ran before failing:\nstdout:\n%s\nstderr:\n%s", out, stderr.String())
	}
}

// TestMissingArguments: a command run without an argument its synopsis
// marks required (<arg>) exits 1 with its usage line.
func TestMissingArguments(t *testing.T) {
	bin := memhogBinary(t)
	for _, c := range commands {
		if !strings.Contains(c.args, "<") {
			continue
		}
		cmd := exec.Command(bin, "-quick", c.name)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("memhog %s: %v, want exit status 1", c.name, err)
		}
		if want := "usage: memhog " + c.name + " " + c.args; !strings.Contains(stderr.String(), want) {
			t.Errorf("memhog %s: stderr %q, want %q", c.name, stderr.String(), want)
		}
	}
}
