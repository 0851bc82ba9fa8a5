package experiments

import (
	"testing"
)

// chaosQuick is the quick chaos-matrix campaign CI runs under -race:
// one benchmark across every fault class and version.
func chaosQuick() Opts {
	o := Quick()
	o.Benches = []string{"matvec"}
	return o
}

func TestChaosMatrixQuick(t *testing.T) {
	m, err := RunChaosMatrix(chaosQuick(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	// Fault classes must actually inject: a matrix of zero-fault runs
	// would pass Check while testing nothing.
	for _, class := range m.Classes {
		total := int64(0)
		for _, mode := range Modes {
			total += m.Results["matvec"][class][mode].Chaos.Total()
		}
		if total == 0 {
			t.Errorf("class %s injected no faults anywhere", class)
		}
	}
	out := FormatChaosMatrix(m).String()
	if out == "" {
		t.Fatal("empty chaos matrix rendering")
	}
	checkDigest(t, "chaos matrix matvec seed 7", out, "4da950ae5f5c3b96acee408d66ad699863f73aea444d6c0c52c146363994fc77")
}

// TestChaosMatrixDeterministic replays one cell with the same seed
// and requires identical statistics — the replayability contract the
// chaos CLI's -seed flag relies on.
func TestChaosMatrixDeterministic(t *testing.T) {
	run := func() *ChaosMatrix {
		o := chaosQuick()
		o.Workers = 2
		m, err := RunChaosMatrix(o, 11)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	for _, class := range a.Classes {
		for _, mode := range Modes {
			ra := a.Results["matvec"][class][mode]
			rb := b.Results["matvec"][class][mode]
			if *ra != *rb {
				t.Errorf("%s/%s differs across identical replays", class, mode)
			}
		}
	}
}
