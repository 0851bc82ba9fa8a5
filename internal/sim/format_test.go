package sim

import (
	"fmt"
	"testing"
)

// fmtIn is AppendIn's reference: %.3f of the float64 quotient.
func fmtIn(t, unit Time) string { return fmt.Sprintf("%.3f", float64(t)/float64(unit)) }

// fmtTime is AppendFormat's reference, the fmt.Sprintf forms
// TestTimeAppendFormat checks its table against.
func fmtTime(t Time) string {
	switch {
	case t >= Second:
		return fmtIn(t, Second) + "s"
	case t >= Millisecond:
		return fmtIn(t, Millisecond) + "ms"
	case t >= Microsecond:
		return fmtIn(t, Microsecond) + "us"
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

var formatUnits = []Time{Microsecond, Millisecond, Second}

// formatChecker compares the integer formatters with the fmt
// references, reusing one buffer, and stops the test after a few
// mismatches.
type formatChecker struct {
	t   testing.TB
	buf []byte
	bad int
}

// report compares the buffer with want; unit is AppendIn's, 0 for
// AppendFormat.
func (c *formatChecker) report(want string, v, unit Time) {
	if string(c.buf) == want {
		return
	}
	what := "AppendFormat"
	if unit != 0 {
		what = "AppendIn(" + unit.String() + ")"
	}
	c.t.Errorf("%s of %d = %q, fmt gives %q", what, int64(v), c.buf, want)
	if c.bad++; c.bad == 10 {
		c.t.FailNow()
	}
}

// format checks AppendFormat at v.
func (c *formatChecker) format(v Time) {
	c.buf = v.AppendFormat(c.buf[:0])
	c.report(fmtTime(v), v, 0)
}

// in checks AppendIn at v in each unit.
func (c *formatChecker) in(v Time, units ...Time) {
	for _, u := range units {
		c.buf = v.AppendIn(c.buf[:0], u)
		c.report(fmtIn(v, u), v, u)
	}
}

// TestTimeFormatMatchesFmt checks AppendFormat and AppendIn against
// the fmt references on every time below 3 ms; around each unit
// boundary, a few large magnitudes and AppendIn's 2^52 range limit;
// and on constructed .xxx5 ties, where the float's binary rounding
// picks the digit, and their neighbours at random magnitudes below
// 2^52.
func TestTimeFormatMatchesFmt(t *testing.T) {
	c := &formatChecker{t: t}
	for v := Time(0); v < 3*Millisecond; v++ {
		c.format(v)
	}
	for _, at := range []Time{Microsecond, Millisecond, Second, 30 * 60 * Second, 1 << 40, 1 << 50, 1 << 52, 1 << 53} {
		for v := at - 2000; v <= at+2000; v++ {
			c.format(v)
			c.in(v, formatUnits...)
		}
	}
	draws := 1 << 18
	if testing.Short() || raceEnabled {
		draws = 1 << 12
	}
	rng := NewRand(1)
	for i := 0; i < draws; i++ {
		// A magnitude below 2^12..2^52, then the ms and s ties at or
		// below it.
		m := Time(rng.Uint64() >> (12 + rng.Uint64()%41))
		msTie := m - m%1000 + 500
		sTie := m - m%1_000_000 + 500_000
		for d := Time(-1); d <= 1; d++ {
			c.format(msTie + d)
			c.in(msTie+d, Millisecond)
			c.format(sTie + d)
			c.in(sTie+d, Second)
		}
	}
}

func BenchmarkTimeAppendFormat(b *testing.B) {
	// Times in every unit, and an ms and an s tie (the float path).
	times := []Time{999, 1_234, 999_999, 1_000_500, 2_500_000, 1_234_500_000, 1_234_567_890, 30 * 60 * Second}
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = times[i%len(times)].AppendFormat(buf[:0])
	}
	formatSink += len(buf)
}

var formatSink int

// FuzzTimeFormat compares AppendFormat and AppendIn, in each unit,
// with the fmt references for any int64.
func FuzzTimeFormat(f *testing.F) {
	for _, v := range []int64{0, 999, 1000, 1_000_500, 2_000_500, 1_000_000_000, 1 << 53, -1_000_500} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v int64) {
		c := &formatChecker{t: t}
		c.format(Time(v))
		c.in(Time(v), formatUnits...)
	})
}
