package experiments

import (
	"testing"

	"memhogs/internal/chaos"
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
	// A class whose plan names a far site runs on a far tier, so those
	// sites must fire somewhere.
	for _, class := range m.Classes {
		plan, err := chaos.ClassPlan(class, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.TargetsFar() {
			continue
		}
		far := int64(0)
		for _, mode := range Modes {
			c := m.Results["matvec"][class][mode].Chaos
			far += c.Get(chaos.FarSlow) + c.Get(chaos.FarDrop) + c.Get(chaos.FarShrink) + c.Get(chaos.FarGrow)
		}
		if far == 0 {
			t.Errorf("class %s names a far site but fired no far-site fault", class)
		}
	}
	out := FormatChaosMatrix(m).String()
	if out == "" {
		t.Fatal("empty chaos matrix rendering")
	}
	checkDigest(t, "chaos matrix matvec seed 7", out, "e98bed30761e2da6fc516a996f25a0e0c52d6cab7d70a0ad6268b45a9696dc73")
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
