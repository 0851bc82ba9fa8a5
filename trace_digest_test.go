package memhogs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
)

// traceDigestCells enumerates the pinned trace matrix: every benchmark
// x version on the quick machine, plus the far-tier cells — FFTPDE
// (the benchmark whose releases carry reuse priorities, so its pages
// actually demote and promote) on the same 256-page budget split 3:1
// DRAM:far. 6x4 + 4 = 28 cells.
func traceDigestCells() []struct {
	Key   string
	Bench string
	V     Version
	M     Machine
} {
	versions := []struct {
		Letter string
		V      Version
	}{
		{"O", Original}, {"P", PrefetchOnly}, {"R", Aggressive}, {"B", Buffered},
	}
	plain := TestMachine()
	farMachine := TestMachine()
	farMachine.MemoryMB = 3 // 192 DRAM pages ...
	farMachine.FarMemMB = 1 // ... + 64 far slots = the same 256-page budget
	var cells []struct {
		Key   string
		Bench string
		V     Version
		M     Machine
	}
	for _, bench := range BenchmarkNames() {
		for _, ver := range versions {
			cells = append(cells, struct {
				Key   string
				Bench string
				V     Version
				M     Machine
			}{bench + "/" + ver.Letter, bench, ver.V, plain})
		}
	}
	for _, ver := range versions {
		cells = append(cells, struct {
			Key   string
			Bench string
			V     Version
			M     Machine
		}{"fftpde/" + ver.Letter + "+far", "fftpde", ver.V, farMachine})
	}
	return cells
}

// traceDigestSums runs every cell of traceDigestCells once and returns
// the sha256 of its Chrome JSON ([0]) and of its merged Log ([1]),
// keyed by cell. TestTraceDigests and TestTraceLogDigests share the
// one pass.
var traceDigestSums = sync.OnceValues(func() ([2]map[string]string, error) {
	sums := [2]map[string]string{{}, {}}
	for _, cell := range traceDigestCells() {
		tr, err := Trace(cell.Bench, cell.V, cell.M, 0, -1)
		if err != nil {
			return sums, fmt.Errorf("%s: %w", cell.Key, err)
		}
		for i, out := range [2][]byte{tr.ChromeJSON, []byte(tr.Log)} {
			sum := sha256.Sum256(out)
			sums[i][cell.Key] = hex.EncodeToString(sum[:])
		}
	}
	return sums, nil
})

// TestTraceDigests pins the flight-recorder trace bytes for every cell
// of traceDigestCells: the sha256 of each `memhog -quick -quiet trace`
// output must match testdata/trace_digests.json. Any divergence means
// a refactor changed simulated behavior, not just speed — including
// the far-tier cells, whose demote/promote traffic is part of the
// pinned byte stream. After an intentional behavior change, regenerate
// with UPDATE_TRACE_DIGESTS=1 go test -run 'TestTrace(Log)?Digests' .
func TestTraceDigests(t *testing.T) {
	sums, err := traceDigestSums()
	if err != nil {
		t.Fatal(err)
	}
	checkTraceDigests(t, "testdata/trace_digests.json", sums[0])
}

// TestTraceLogDigests pins the merged human-readable log (`memhog trace
// -log`: one line per event plus the counter summary) the same way,
// against testdata/trace_log_digests.json. The Log formats the same
// ring as the Chrome export, so it diverges alone only when the Log
// renderer itself changes: padding, time format, or argument labels.
func TestTraceLogDigests(t *testing.T) {
	sums, err := traceDigestSums()
	if err != nil {
		t.Fatal(err)
	}
	checkTraceDigests(t, "testdata/trace_log_digests.json", sums[1])
}

// checkTraceDigests compares got against the digest file at path, or
// rewrites the file when UPDATE_TRACE_DIGESTS is set.
func checkTraceDigests(t *testing.T, path string, got map[string]string) {
	t.Helper()
	cells := traceDigestCells()
	if len(cells) != 28 {
		t.Fatalf("digest matrix has %d cells, want 28 (6 benchmarks x 4 versions + 4 far cells)", len(cells))
	}
	if os.Getenv("UPDATE_TRACE_DIGESTS") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cells) {
		t.Fatalf("%s has %d cells, matrix has %d — regenerate with UPDATE_TRACE_DIGESTS=1",
			path, len(want), len(cells))
	}
	for _, cell := range cells {
		if got[cell.Key] != want[cell.Key] {
			t.Errorf("%s: trace bytes changed (sha256 %s, want %s)", cell.Key, got[cell.Key], want[cell.Key])
		}
	}
}
