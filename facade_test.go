package memhogs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"memhogs/internal/experiments"
)

func TestDuelFacade(t *testing.T) {
	out, err := Duel("matvec", "embar", TestMachine())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"matvec", "embar", "stolen(A)", "O", "B"} {
		if !strings.Contains(out, want) {
			t.Errorf("duel output missing %q:\n%s", want, out)
		}
	}
}

func TestDuelUnknownBenchmark(t *testing.T) {
	if _, err := Duel("nosuch", "embar", TestMachine()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSensitivityFacade(t *testing.T) {
	out, err := Campaign{Quick: true, Workers: 1}.Sensitivity("matvec")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mem/data") {
		t.Fatalf("sensitivity output malformed:\n%s", out)
	}
}

func TestCampaignFacadeParallelExperiment(t *testing.T) {
	// The Campaign facade must produce the same rendered experiment at
	// any worker count (table3 rides on the heaviest campaign).
	serial, err := Campaign{Quick: true, Workers: 1}.Experiment("table3")
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Campaign{Quick: true, Workers: 4}.Experiment("table3")
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Errorf("parallel table3 differs from serial:\n%s\nvs\n%s", parallel, serial)
	}
	if !strings.Contains(serial, "pages released") {
		t.Errorf("table3 malformed:\n%s", serial)
	}
}

func TestCampaignFacadeUnknownID(t *testing.T) {
	if _, err := (Campaign{Quick: true}).Experiment("nosuch"); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestTimelineFacade(t *testing.T) {
	out, err := Timeline("matvec", PrefetchOnly, TestMachine(), 3, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"memory timeline", "free", "interactive", "samples"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q", want)
		}
	}
}

func TestTimelineWithoutInteractive(t *testing.T) {
	out, err := Timeline("embar", Buffered, TestMachine(), 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "interactive") {
		t.Fatal("interactive task present despite sleepMS < 0")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := RunBenchmark("embar", Aggressive, TestMachine())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Benchmark != "embar" || back.Version != "R" {
		t.Fatalf("round trip lost identity: %+v", back)
	}
	if back.ElapsedSeconds != rep.ElapsedSeconds || back.PagesReleased != rep.PagesReleased {
		t.Fatal("round trip lost numbers")
	}
}

// TestVerifyQuick renders "all" and "verify" in one quick call. Every
// claim of the recorded full-scale check must be evaluated (the quick
// campaign need not pass them all), and the progress lines must number
// the cells of the three campaigns counted once: the two names share
// one pass.
func TestVerifyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick campaign")
	}
	var out, progress bytes.Buffer
	if _, err := (Campaign{Quick: true, Workers: 1, Progress: &progress}).Render(&out, "all", "verify"); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.HasPrefix(text, "Table 1") || !strings.HasSuffix(text, "claims hold\n") {
		t.Fatalf("all+verify output malformed:\n%s", text)
	}
	full, err := os.ReadFile("verify_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	ids := regexp.MustCompile(`(?m)^  \[(?:pass|FAIL)\] (\S+)`)
	want := ids.FindAllStringSubmatch(string(full), -1)
	if len(want) == 0 {
		t.Fatal("no claims in verify_full.txt")
	}
	for _, m := range want {
		if !regexp.MustCompile(`(?m)^  \[(?:pass|FAIL)\] ` + regexp.QuoteMeta(m[1]) + ` `).MatchString(text) {
			t.Errorf("claim %s not evaluated", m[1])
		}
	}
	o := experiments.Quick()
	grid := len(BenchmarkNames()) * len(experiments.Modes)
	cells := grid + (1 + grid) + len(o.SleepTimes)*(1+len(experiments.Modes)) // versions, interactive, sweep
	if n := strings.Count(progress.String(), "\n"); n != cells {
		t.Errorf("%d progress lines, want %d: one per cell of each campaign, run once", n, cells)
	}
}

func TestVetFacade(t *testing.T) {
	// The pathological benchmark reports its signature finding through
	// the public API...
	rep, err := VetBenchmark("fftpde", TestMachine())
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasErrors() || rep.Clean() {
		t.Fatalf("fftpde: want warnings without errors, got %d errors / %d warnings", rep.Errors, rep.Warnings)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Code == "HV006" {
			found = true
			if f.Severity != "warning" || f.Array != "x" || f.Fix == "" {
				t.Fatalf("HV006 finding malformed: %+v", f)
			}
		}
	}
	if !found {
		t.Fatalf("fftpde: no HV006 finding in %v", rep.Findings)
	}
	if !strings.Contains(rep.String(), "HV006") {
		t.Fatalf("rendered report missing HV006:\n%s", rep)
	}

	// ...and the clean benchmark stays clean, with the analysis summary
	// available as HV000 notes.
	clean, err := VetBenchmark("matvec", TestMachine())
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Clean() || len(clean.Findings) != 0 {
		t.Fatalf("matvec: want zero findings, got:\n%s", clean)
	}
	prog, err := Compile(`
program tiny
array a[4096] of float64
for i = 0 to 4095 { a[i] = a[i] + 1 @ 10 }
`, TestMachine(), Buffered)
	if err != nil {
		t.Fatal(err)
	}
	ws := prog.VetWithStats()
	if ws.Notes < 2 || !strings.Contains(ws.String(), "HV000") {
		t.Fatalf("VetWithStats missing HV000 summary notes:\n%s", ws)
	}
}

// TestCertificateGoldens locks the facade's certificate listing for
// every benchmark on the paper's machine against its checked-in golden
// (the same bytes `memhog certify <bench>` prints). Regenerate with
// `go run ./cmd/gen-golden`.
func TestCertificateGoldens(t *testing.T) {
	for _, name := range BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			got, err := CertifyBenchmark(name, DefaultMachine())
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("internal", "footprint", "testdata", name+".cert.golden"))
			if err != nil {
				t.Fatalf("missing golden (run `go run ./cmd/gen-golden`): %v", err)
			}
			if got != string(want) {
				t.Errorf("certificate listing differs from %s.cert.golden; if intentional run `go run ./cmd/gen-golden`\n--- got\n%s", name, got)
			}
		})
	}
}

// TestSetDataAfterCompile attaches the index generator after Compile:
// the run must read it then, so two generators give different page
// traffic and a program with none fails at bind.
func TestSetDataAfterCompile(t *testing.T) {
	const src = `
program histogram
param N
array key[N] of int64
array count[131072] of float64
for i = 0 to N-1 {
    count[key[i]] = count[key[i]] + 1 @ 20
}
`
	opts := RunOptions{Params: map[string]int64{"N": 65536}, InteractiveSleepMS: -1}
	run := func(gen func(int64) int64) (*Report, error) {
		p, err := Compile(src, TestMachine(), Buffered)
		if err != nil {
			t.Fatal(err)
		}
		if gen != nil {
			p.SetData("key", gen)
		}
		return p.Run(opts)
	}
	one, err := run(func(int64) int64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	spread, err := run(func(i int64) int64 { return i * 2 })
	if err != nil {
		t.Fatal(err)
	}
	// One bucket faults in key's 32 pages and one page of count;
	// spread keys fault in all 64 pages of count.
	faults := func(r *Report) int64 { return r.HardFaults + r.SoftFaults }
	if faults(spread) <= faults(one) {
		t.Errorf("spread keys took %d faults, one bucket %d: the generator was not used",
			faults(spread), faults(one))
	}
	if _, err := run(nil); err == nil || !strings.Contains(err.Error(), "has no data generator") {
		t.Errorf("run without a generator: err = %v, want a missing data generator", err)
	}
}

// TestSymbolicStrideBesideOuterTerm compiles a reference with a known
// coefficient on the outer loop and a symbolic stride on the inner one.
// Its directives must drive from the inner loop, where both variables
// are bound: every version vets without errors and runs.
func TestSymbolicStrideBesideOuterTerm(t *testing.T) {
	const src = `
program stridemix
param S
array a[40000] of float64
for i = 0 to 7 {
    for j = 0 to 4095 {
        a[2*i+S*j] = a[2*i+S*j] + 1 @ 10
    }
}
`
	for _, v := range Versions() {
		p, err := Compile(src, TestMachine(), v)
		if err != nil {
			t.Fatal(err)
		}
		if rep := p.Vet(); rep.HasErrors() {
			t.Fatalf("%s: vet errors:\n%s", v, rep)
		}
		rep, err := p.Run(RunOptions{Params: map[string]int64{"S": 2}, InteractiveSleepMS: -1})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if rep.HardFaults+rep.SoftFaults == 0 {
			t.Fatalf("%s: the sweep took no faults", v)
		}
	}
}
