package memhogs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestVerifyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick campaign")
	}
	out, _, err := Campaign{Quick: true, Workers: 1}.Verify()
	if err != nil {
		t.Fatal(err)
	}
	// The quick campaign need not pass every full-scale claim, but it
	// must render and evaluate them all.
	if !strings.Contains(out, "claims hold") {
		t.Fatalf("verify output malformed:\n%s", out)
	}
	for _, id := range []string{"C1", "C3", "C7c", "C9a"} {
		if !strings.Contains(out, id) {
			t.Errorf("claim %s not evaluated", id)
		}
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
