package disk

import (
	"testing"

	"memhogs/internal/sim"
)

func testConfig() Config {
	return Config{
		NumDisks:     4,
		NumAdapters:  2,
		PosTimeMin:   4 * sim.Millisecond,
		PosTimeMax:   9 * sim.Millisecond,
		SeqPosTime:   600 * sim.Microsecond,
		TransferTime: 900 * sim.Microsecond,
		Seed:         1,
	}
}

func TestSingleRequestLatency(t *testing.T) {
	s := sim.New()
	a := New(s, testConfig())
	var done sim.Time
	a.Submit(0, &Request{Op: Read, Done: func() { done = s.Now() }})
	s.Run(0)
	min := 4*sim.Millisecond + 900*sim.Microsecond
	max := 9*sim.Millisecond + 900*sim.Microsecond
	if done < min || done > max {
		t.Fatalf("latency %v outside [%v, %v]", done, min, max)
	}
	if a.Stats().Reads != 1 {
		t.Fatalf("Reads = %d, want 1", a.Stats().Reads)
	}
}

func TestStripingSpreadsAcrossDisks(t *testing.T) {
	s := sim.New()
	a := New(s, testConfig())
	seen := map[int]bool{}
	for pg := int64(0); pg < 8; pg++ {
		seen[a.DiskFor(pg)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("striping hit %d disks, want 4", len(seen))
	}
	// Consecutive pages land on consecutive disks.
	if a.DiskFor(0) == a.DiskFor(1) {
		t.Fatal("adjacent pages on same disk")
	}
}

func TestParallelismAcrossDisks(t *testing.T) {
	s := sim.New()
	cfg := testConfig()
	cfg.PosTimeMin, cfg.PosTimeMax = 5*sim.Millisecond, 5*sim.Millisecond
	a := New(s, cfg)
	completed := 0
	// One request per disk: they should complete in roughly one
	// service time, not four.
	for pg := int64(0); pg < 4; pg++ {
		a.Submit(pg, &Request{Op: Read, Done: func() { completed++ }})
	}
	end := s.Run(0)
	if completed != 4 {
		t.Fatalf("completed %d, want 4", completed)
	}
	// Positioning overlaps fully; transfers serialize pairwise on the
	// two adapters at worst: 5ms + a few transfers.
	if end > 8*sim.Millisecond {
		t.Fatalf("4-wide parallel reads took %v; no parallelism?", end)
	}
}

func TestQueueingSerializesOneDisk(t *testing.T) {
	s := sim.New()
	cfg := testConfig()
	cfg.PosTimeMin, cfg.PosTimeMax = 5*sim.Millisecond, 5*sim.Millisecond
	a := New(s, cfg)
	n := 0
	// Same disk (stride by NumDisks): strictly serial.
	for i := 0; i < 3; i++ {
		// Use widely spaced blocks so the sequential discount never
		// applies.
		a.Submit(int64(i*100*cfg.NumDisks), &Request{Op: Read, Done: func() { n++ }})
	}
	end := s.Run(0)
	if n != 3 {
		t.Fatalf("completed %d, want 3", n)
	}
	want := 3 * (5*sim.Millisecond + 900*sim.Microsecond)
	if end != want {
		t.Fatalf("serial service took %v, want %v", end, want)
	}
}

func TestSequentialDiscount(t *testing.T) {
	s := sim.New()
	cfg := testConfig()
	a := New(s, cfg)
	// Blocks 0 and NumDisks map to blocks 0 and 1 of disk 0.
	a.Submit(0, &Request{Op: Read})
	a.Submit(int64(cfg.NumDisks), &Request{Op: Read})
	s.Run(0)
	if a.Stats().SeqHits != 1 {
		t.Fatalf("SeqHits = %d, want 1", a.Stats().SeqHits)
	}
}

func TestWaiterWoken(t *testing.T) {
	// A process parks until its request's Done wakes it, as a demand
	// page-in does: Done runs in the event loop and only wakes.
	s := sim.New()
	a := New(s, testConfig())
	var woke sim.Time
	s.Spawn("app", func(p *sim.Proc) {
		done := false
		a.Submit(3, &Request{Op: Write, Done: func() {
			done = true
			p.Wake()
		}})
		for !done {
			p.Park()
		}
		woke = p.Now()
	})
	s.Run(0)
	if woke == 0 {
		t.Fatal("waiter never woke")
	}
	if a.Stats().Writes != 1 {
		t.Fatalf("Writes = %d, want 1", a.Stats().Writes)
	}
}

func TestQueueTimeAccounted(t *testing.T) {
	s := sim.New()
	cfg := testConfig()
	cfg.PosTimeMin, cfg.PosTimeMax = 5*sim.Millisecond, 5*sim.Millisecond
	a := New(s, cfg)
	for i := 0; i < 2; i++ {
		a.Submit(int64(i*50*cfg.NumDisks), &Request{Op: Read})
	}
	s.Run(0)
	// Second request waits one full service of the first.
	if a.Stats().QueueTime < 5*sim.Millisecond {
		t.Fatalf("QueueTime = %v, want >= 5ms", a.Stats().QueueTime)
	}
}

func TestElevatorCoalescesInterleavedStreams(t *testing.T) {
	// Two interleaved sequential streams on one disk: with CSCAN
	// sorting, most requests should get the near-positioning discount
	// even though they arrive alternating between two distant regions.
	s := sim.New()
	cfg := testConfig()
	cfg.NumDisks = 1
	cfg.NumAdapters = 1
	a := New(s, cfg)
	done := 0
	for i := 0; i < 32; i++ {
		a.Submit(int64(i), &Request{Op: Read, Done: func() { done++ }})        // stream A: blocks 0..31
		a.Submit(int64(100000+i), &Request{Op: Read, Done: func() { done++ }}) // stream B: far away
	}
	s.Run(0)
	if done != 64 {
		t.Fatalf("completed %d, want 64", done)
	}
	// Perfect coalescing would be 62 sequential hits (two stream
	// heads pay seeks); demand at least 50.
	if a.Stats().SeqHits < 50 {
		t.Fatalf("SeqHits = %d; elevator failed to coalesce streams", a.Stats().SeqHits)
	}
}

func TestElevatorServicesEverythingUnderContinuousLoad(t *testing.T) {
	// CSCAN must not starve low blocks while high blocks keep
	// arriving: submit a burst, then a trailing low block, and check
	// it completes.
	s := sim.New()
	cfg := testConfig()
	cfg.NumDisks = 1
	cfg.NumAdapters = 1
	a := New(s, cfg)
	low := false
	for i := 10; i < 30; i++ {
		a.Submit(int64(i*1000), &Request{Op: Read})
	}
	a.Submit(1, &Request{Op: Read, Done: func() { low = true }})
	s.Run(0)
	if !low {
		t.Fatal("low block starved")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() sim.Time {
		s := sim.New()
		a := New(s, testConfig())
		for pg := int64(0); pg < 20; pg++ {
			a.Submit(pg*3, &Request{Op: Read})
		}
		return s.Run(0)
	}
	if run() != run() {
		t.Fatal("disk model not deterministic")
	}
}
