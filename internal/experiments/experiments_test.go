package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"memhogs/internal/rt"
	"memhogs/internal/sim"
)

// checkDigest pins the exact bytes of a rendered campaign output. The
// serial-versus-parallel checks only prove a campaign deterministic;
// the digest proves it unchanged. A deliberate behaviour change must
// update the digest and say why.
func checkDigest(t *testing.T, name, out, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: sha256 %s, want %s\n%s", name, got, want, out)
	}
}

func TestTable1Renders(t *testing.T) {
	out := Table1(Default()).String()
	for _, want := range []string{"75.0 MB", "16 KB", "10 disks", "4 x 225 MHz"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2AllBenchmarks(t *testing.T) {
	tbl, err := Table2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, name := range []string{"matvec", "embar", "buk", "cgm", "mgrid", "fftpde"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table 2 missing %s:\n%s", name, out)
		}
	}
	if tbl.NumRows() != 6 {
		t.Errorf("rows = %d, want 6", tbl.NumRows())
	}
}

func TestTable2FullSizesAreOutOfCore(t *testing.T) {
	tbl, err := Table2(Default())
	if err != nil {
		t.Fatal(err)
	}
	// Every full-size benchmark's data set must exceed the 75 MB of
	// user memory; spot-check MATVEC's 400 MB.
	if !strings.Contains(tbl.String(), "400.1 MB") {
		t.Errorf("MATVEC data set should be ~400 MB:\n%s", tbl.String())
	}
}

func TestVersionsQuickCampaign(t *testing.T) {
	o := Quick()
	o.Benches = []string{"matvec", "embar"}
	v, err := RunVersions(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Results) != 2 {
		t.Fatalf("benchmarks = %d", len(v.Results))
	}
	fig7 := Fig7(v)
	for _, want := range []string{"matvec", "embar", "normalized", "stall-io"} {
		if !strings.Contains(fig7, want) {
			t.Errorf("Fig7 missing %q", want)
		}
	}
	fig8 := Fig8(v).String()
	if !strings.Contains(fig8, "matvec") {
		t.Errorf("Fig8 missing matvec:\n%s", fig8)
	}
	t3 := Table3(v).String()
	if !strings.Contains(t3, "pages released") {
		t.Errorf("Table3 malformed:\n%s", t3)
	}
	fig9 := Fig9(v).String()
	if !strings.Contains(fig9, "rescued") {
		t.Errorf("Fig9 malformed:\n%s", fig9)
	}
	locks := LockTable(v).String()
	if !strings.Contains(locks, "wait/acq") || !strings.Contains(locks, "matvec") {
		t.Errorf("LockTable malformed:\n%s", locks)
	}
	// Science check on the quick campaign: releasing silences the
	// daemon relative to prefetch-only for the streaming benchmark.
	p := v.Results["embar"][rt.ModePrefetch]
	r := v.Results["embar"][rt.ModeAggressive]
	if r.Daemon.Stolen > p.Daemon.Stolen/2 {
		t.Errorf("releasing did not cut daemon stealing: P=%d R=%d", p.Daemon.Stolen, r.Daemon.Stolen)
	}
}

func TestInteractiveQuickCampaign(t *testing.T) {
	o := Quick()
	o.Benches = []string{"matvec"}
	d, err := RunInteractive(o)
	if err != nil {
		t.Fatal(err)
	}
	if d.Alone <= 0 {
		t.Fatal("no alone baseline")
	}
	out := Fig10b(d).String()
	if !strings.Contains(out, "matvec") {
		t.Errorf("Fig10b malformed:\n%s", out)
	}
	outC := Fig10c(d).String()
	if !strings.Contains(outC, "matvec") {
		t.Errorf("Fig10c malformed:\n%s", outC)
	}
	// Prefetch-only hurts the interactive task; buffered releasing
	// recovers it.
	p := d.Results["matvec"][rt.ModePrefetch].Interactive.MeanResponse
	b := d.Results["matvec"][rt.ModeBuffered].Interactive.MeanResponse
	if b > p {
		t.Errorf("B response %v worse than P %v", b, p)
	}
}

func TestSweepQuickCampaign(t *testing.T) {
	o := Quick()
	s, err := RunSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	out := Fig1(s).String()
	if !strings.Contains(out, "with prefetching") {
		t.Errorf("Fig1 malformed:\n%s", out)
	}
	outA := Fig10a(s).String()
	if !strings.Contains(outA, "alone") {
		t.Errorf("Fig10a malformed:\n%s", outA)
	}
	if len(s.Sleeps) != len(o.SleepTimes) {
		t.Fatalf("sleeps = %d", len(s.Sleeps))
	}
}

func TestSensitivitySweep(t *testing.T) {
	o := Quick()
	s, err := RunSensitivity(o, "matvec", []float64{0.5, 1.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points = %d", len(s.Points))
	}
	// The crossover: with memory above data size, the daemon stops
	// stealing even without releases.
	scarce, ample := s.Points[0], s.Points[1]
	if ample.Stolen[rt.ModePrefetch] >= scarce.Stolen[rt.ModePrefetch] {
		t.Fatalf("daemon stealing did not drop with ample memory: %d -> %d",
			scarce.Stolen[rt.ModePrefetch], ample.Stolen[rt.ModePrefetch])
	}
	out := FormatSensitivity(s).String()
	if !strings.Contains(out, "mem/data") {
		t.Fatalf("format malformed:\n%s", out)
	}
	checkDigest(t, "sensitivity matvec", out, "78b6522597238545f91b971281155d465faa9563c3575307b3c70fe2cbc173f1")
}

func TestOptsDefaults(t *testing.T) {
	d := Default()
	if d.Scaled {
		t.Error("Default is scaled")
	}
	if d.Sleep != 5*sim.Second {
		t.Errorf("default sleep = %v, want the paper's 5s", d.Sleep)
	}
	if len(d.SleepTimes) < 6 || d.SleepTimes[0] != 0 {
		t.Errorf("sleep sweep malformed: %v", d.SleepTimes)
	}
	q := Quick()
	if !q.Scaled {
		t.Error("Quick not scaled")
	}
	if q.Horizon >= d.Horizon && q.Sleep >= d.Sleep {
		t.Error("Quick not quicker")
	}
	specs, err := q.specs()
	if err != nil || len(specs) != 6 {
		t.Fatalf("specs = %d, %v", len(specs), err)
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	o := Quick()
	o.Benches = []string{"nosuch"}
	if _, err := RunVersions(o); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
