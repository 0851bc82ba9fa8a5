package memhogs

import (
	"strings"
	"testing"
)

func TestRunBenchmarkQuick(t *testing.T) {
	rep, err := RunBenchmark("matvec", Buffered, TestMachine())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ElapsedSeconds <= 0 {
		t.Fatalf("elapsed = %v", rep.ElapsedSeconds)
	}
	if rep.PagesReleased == 0 {
		t.Fatal("buffered version released nothing")
	}
	out := rep.String()
	for _, want := range []string{"matvec", "stall-io", "releaser"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestAllVersionsOrdering(t *testing.T) {
	m := TestMachine()
	var elapsed []float64
	for _, v := range Versions() {
		rep, err := RunBenchmark("embar", v, m)
		if err != nil {
			t.Fatal(err)
		}
		elapsed = append(elapsed, rep.ElapsedSeconds)
	}
	// O slowest; releasing at least as good as prefetch-only.
	if elapsed[0] <= elapsed[1] {
		t.Errorf("O (%v) not slower than P (%v)", elapsed[0], elapsed[1])
	}
	if elapsed[2] > elapsed[1]*1.05 {
		t.Errorf("R (%v) slower than P (%v)", elapsed[2], elapsed[1])
	}
}

func TestCompileCustomProgram(t *testing.T) {
	src := `
program mini
param N
known N = 65536
array a[N] of float64
array b[N] of float64
for i = 0 to N-1 {
    b[i] = a[i] * 2 + 1 @ 50
}
`
	prog, err := Compile(src, TestMachine(), Buffered)
	if err != nil {
		t.Fatal(err)
	}
	st := prog.Stats()
	if st.PrefetchDirectives == 0 || st.ReleaseDirectives == 0 {
		t.Fatalf("no directives inserted: %+v", st)
	}
	lst := prog.Listing()
	if !strings.Contains(lst, "pf(&a[") || !strings.Contains(lst, "rel(&") {
		t.Fatalf("listing missing hints:\n%s", lst)
	}
	rep, err := prog.Run(RunOptions{InteractiveSleepMS: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PageIns == 0 {
		t.Fatal("program read no pages")
	}
}

func TestCompileRejectsBadSource(t *testing.T) {
	if _, err := Compile("program broken\n???", TestMachine(), Original); err == nil {
		t.Fatal("bad source compiled")
	}
}

func TestCustomProgramWithInteractive(t *testing.T) {
	src, err := BenchmarkSource("matvec", TestMachine())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(src, TestMachine(), PrefetchOnly)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := prog.Run(RunOptions{InteractiveSleepMS: 1000, RepeatSeconds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InteractiveMeanResponseMS <= 0 {
		t.Fatal("no interactive response measured")
	}
}

func TestBenchmarkNames(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 6 {
		t.Fatalf("benchmarks = %v", names)
	}
	if _, err := RunBenchmark("nosuch", Original, TestMachine()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestExperimentIDsAllRenderQuick(t *testing.T) {
	// Only the cheap static ones here; the full campaign runs in
	// internal/experiments, perfbench and the CLI.
	c := Campaign{Quick: true, Workers: 1}
	for _, id := range []string{"table1", "table2"} {
		out, err := c.Experiment(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) == 0 {
			t.Fatalf("%s: empty", id)
		}
	}
	if _, err := c.Experiment("nosuch"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestVersionStrings(t *testing.T) {
	want := map[Version]string{Original: "O", PrefetchOnly: "P", Aggressive: "R", Buffered: "B"}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
		if back, err := ParseVersion(s); err != nil || back != v {
			t.Errorf("ParseVersion(%q) = %v, %v, want %v", s, back, err, v)
		}
	}
	if _, err := ParseVersion("V"); err == nil {
		t.Error("ParseVersion accepted V")
	}
}

func TestMachineConfig(t *testing.T) {
	m := DefaultMachine()
	cfg := m.kernelConfig()
	if cfg.UserMemPages != 4800 {
		t.Errorf("pages = %d, want 4800", cfg.UserMemPages)
	}
	m.MemoryMB = 150
	if m.kernelConfig().UserMemPages != 9600 {
		t.Error("MemoryMB override ignored")
	}
}
