package pageout

import (
	"fmt"
	"testing"

	"memhogs/internal/sim"
)

// TestClockHandNeverSkipsOrRepeats pins the clock-hand walk invariant
// under hot-unplug: the positions reported by the sweep (scanned frames
// plus skipped runs) must form an exactly +1-mod-nf cyclic walk, even
// while frames go offline and come back in the middle of an active
// sweep. The old implementation stepped the hand back with modular
// arithmetic at batch boundaries; this asserts the hand can never
// retreat, skip, or double-visit a frame no matter when the frame
// population changes.
func TestClockHandNeverSkipsOrRepeats(t *testing.T) {
	r := newRig(48)
	nf := r.phys.NumFrames()

	prev := -1
	visits, scannedVisits, offlined := 0, 0, 0
	var walkErr error
	r.daemon.testVisit = func(frame int, scanned bool) {
		if frame < 0 || frame >= nf {
			t.Fatalf("hand reported out-of-range frame %d", frame)
		}
		if prev >= 0 && frame != (prev+1)%nf && walkErr == nil {
			walkErr = fmt.Errorf("hand jumped from frame %d to %d (nf=%d, visit %d)",
				prev, frame, nf, visits)
		}
		prev = frame
		visits++
		if scanned {
			scannedVisits++
		}
		// Hot-unplug in the middle of the active sweep, and replug a
		// little later, so the allocated bitmap changes under the hand.
		switch visits % 64 {
		case 40:
			offlined += r.phys.OfflineNode(-1, 2)
		case 0:
			r.phys.OnlineNode(-1, 2)
		}
	}

	a := r.newAS("a", 0, 128)
	b := r.newAS("b", 1, 128)
	r.s.Spawn("a", func(p *sim.Proc) {
		x := &testExec{proc: p}
		for round := 0; round < 4; round++ {
			for vpn := 0; vpn < 120; vpn++ {
				a.Touch(x, vpn, false)
			}
		}
	})
	r.s.Spawn("b", func(p *sim.Proc) {
		x := &testExec{proc: p}
		for round := 0; round < 4; round++ {
			for vpn := 0; vpn < 120; vpn++ {
				b.Touch(x, vpn, false)
			}
		}
	})
	r.s.Run(0)

	if walkErr != nil {
		t.Fatal(walkErr)
	}
	if scannedVisits == 0 || r.daemon.Stats.Scanned == 0 {
		t.Fatalf("sweep never examined a frame (visits=%d, stats=%+v)", visits, r.daemon.Stats)
	}
	if visits <= nf {
		t.Fatalf("hand never wrapped the pool (visits=%d, nf=%d): test exercised nothing", visits, nf)
	}
	if offlined == 0 {
		t.Fatal("no frame ever went offline mid-sweep: test exercised nothing")
	}
}
