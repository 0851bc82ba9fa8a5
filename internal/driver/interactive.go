package driver

import (
	"memhogs/internal/kernel"
	"memhogs/internal/sim"
)

// Interactive emulates the paper's interactive task (§1.1): it
// repeatedly touches a 1 MB data set, records the time the sweep took
// (the "response time"), then sleeps for a fixed think time. Its pages
// are what the memory hog steals.
type Interactive struct {
	P       *kernel.Process
	Sleep   sim.Time
	Pages   int
	PerPage sim.Time

	responses []sim.Time
	pageIns   []int64
}

// InteractivePages is the task's data set in pages: 1 MB of 16 KB
// pages (the paper reports a 65-page maximum fault count; the extra
// page is the code page, which we fold into the data sweep).
const InteractivePages = 64

// StartInteractive launches the interactive task on a booted system.
func StartInteractive(sys *kernel.System, sleep sim.Time) *Interactive {
	it := &Interactive{
		Sleep:   sleep,
		Pages:   InteractivePages,
		PerPage: 15 * sim.Microsecond,
	}
	it.P = sys.NewProcess("interactive", it.Pages)
	it.P.Start(false, func(th *kernel.Thread) {
		for {
			start := th.Now()
			before := it.P.AS.Stats.PageIns
			for vpn := 0; vpn < it.Pages; vpn++ {
				th.Touch(vpn, false)
				th.User(it.PerPage)
			}
			th.FlushUser()
			it.responses = append(it.responses, th.Now()-start)
			it.pageIns = append(it.pageIns, it.P.AS.Stats.PageIns-before)
			th.SleepIdle(it.Sleep)
		}
	})
	return it
}

// Stats summarizes the sweeps, dropping the first (cold start) sweep.
func (it *Interactive) Stats() InteractiveStats {
	st := InteractiveStats{Enabled: true, StolenPages: it.P.AS.Stats.StolenPages}
	if len(it.responses) <= 1 {
		return st
	}
	resp := it.responses[1:]
	pins := it.pageIns[1:]
	st.Sweeps = len(resp)
	var sum sim.Time
	for _, r := range resp {
		sum += r
		if r > st.MaxResponse {
			st.MaxResponse = r
		}
	}
	st.MeanResponse = MeanTime(sum, len(resp))
	var pi int64
	for _, p := range pins {
		pi += p
	}
	st.TotalPageIns = pi
	st.MeanPageIns = float64(pi) / float64(len(pins))
	return st
}

// MeanTime divides a virtual-time sum by a sample count rounding half
// away from zero, the same convention as the largest-remainder
// rounding in metrics tables. A truncating integer division here would
// bias every mean (and every float ratio built on it, Figure 10 and
// claims C5/C6) low by up to one nanosecond per sample — harmless for
// one run, visibly inconsistent once aggregates are compared against
// table renderings.
func MeanTime(sum sim.Time, n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return (sum + sim.Time(n)/2) / sim.Time(n)
}

// AloneResponse measures the interactive task's response time on an
// otherwise idle machine — the normalization baseline of Figure 10.
func AloneResponse(kcfg kernel.Config, sleep sim.Time, sweeps int) sim.Time {
	sys := kernel.NewSystem(kcfg)
	it := StartInteractive(sys, sleep)
	horizon := sim.Time(sweeps+2) * (sleep + 100*sim.Millisecond)
	if horizon < 10*sim.Second {
		horizon = 10 * sim.Second
	}
	defer sys.Sim.Close()
	sys.Run(horizon)
	st := it.Stats()
	if st.Sweeps == 0 {
		return 0
	}
	return st.MeanResponse
}
