package events

import (
	"math"
	"testing"

	"memhogs/internal/sim"
)

// TestLogLenExact checks that logLen is the exact length of Log's
// event lines, so the buffer Log hands out as its string is full: over
// empty, multibyte, long and invalid-UTF-8 names, every kind, absent
// and large pages, extreme arguments, and times outside the trace
// horizon, negative ones included. A ring that wraps is covered too.
func TestLogLenExact(t *testing.T) {
	names := []string{"", "app", "pageoutd", "日本語のプロセス", "naïve-Ünïcödé", "a-very-long-actor-name", "\xff\xfe"}
	times := append([]sim.Time{
		-1, -1 << 40, math.MinInt64,
		1_000_000*sim.Second - 1, 1_000_000 * sim.Second, 1 << 52, 1 << 53, math.MaxInt64,
	}, fuzzTimes...)
	vals := []int64{0, 9, 10, -1, -9, -10, 99, 1 << 40, math.MaxInt64, math.MinInt64}
	pages := []int{-1, 0, 9, 10, 4095, 1 << 40}
	rng := sim.NewRand(1)
	for _, capacity := range []int{3000, 5000} {
		r := New(sim.New(), capacity)
		for i := 0; i < 4000; i++ {
			emitAt(r, times[rng.Intn(len(times))], Kind(rng.Intn(int(KindCount))),
				names[rng.Intn(len(names))], names[rng.Intn(len(names))], pages[rng.Intn(len(pages))],
				vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))])
		}
		log := r.Log()
		if log != refLog(r) {
			t.Fatalf("capacity %d: Log differs from the fmt reference", capacity)
		}
		if got, want := r.logLen(), len(log)-len(r.CounterSummary()); got != want {
			t.Errorf("capacity %d: logLen = %d, Log's event lines take %d bytes", capacity, got, want)
		}
	}
}
