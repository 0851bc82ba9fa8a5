package pageout_test

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"memhogs/internal/chaos"
	"memhogs/internal/events"
	"memhogs/internal/kernel"
	"memhogs/internal/leakcheck"
	"memhogs/internal/pageout"
	"memhogs/internal/sim"
)

// daemonRun is a one-CPU machine on which a hog sweeps more pages
// than fit while a small process runs over its maxrss and hands pages
// to its releaser. The hog volunteers its oldest pages to the paging
// daemon (a donor pass) before the clock runs, and the clock scans the
// hog's address space while the hog faults on it, so the two contend
// for its memory lock. With a far tier, the releaser demotes the
// released pages of nonzero priority. Chaos inflates some daemon
// activations (steal storms) and stalls the releaser before some
// requests. On two nodes the hog and the small process live on
// different nodes, so the balancer moves free frames between them.
type daemonRun struct {
	sys      *kernel.System
	hog, app *kernel.Process
	rec      *events.Recorder
	in       *chaos.Injector
}

func newDaemonRun(nodes int) *daemonRun {
	cfg := kernel.TestConfig()
	cfg.NCPU = 1
	cfg.Nodes = nodes
	cfg.UserMemPages = 128
	cfg.MinFreePages = 8
	cfg.TargetFreePages = 20
	cfg.Daemon.Batch = 24
	cfg.Daemon.PerPage = 40 * sim.Microsecond
	cfg.Releaser.Batch = 4
	cfg.Far.Pages = 12
	sys := kernel.NewSystem(cfg)
	rec := events.New(sys.Sim, 0)
	sys.SetEvents(rec)
	in := chaos.NewInjector(sys.Sim, rec, chaos.Plan{Seed: 9, Faults: []chaos.Fault{
		{Site: chaos.DaemonStorm, Prob: 0.3, Mag: 16},
		{Site: chaos.ReleaserStall, Prob: 0.5, Mag: int64(3 * sim.Millisecond)},
	}})
	sys.SetChaos(in)
	r := &daemonRun{sys: sys, rec: rec, in: in}
	r.hog = sys.NewProcess("hog", 400)
	r.app = sys.NewProcess("app", 64)
	r.app.AS.MaxRSS = 24

	// The hog's donor volunteers its first 40 pages, oldest first,
	// each at most once.
	next := 0
	r.hog.HomeDaemon().RegisterDonor(pageout.Donor{AS: r.hog.AS, Pick: func(max int) []int {
		var out []int
		for ; next < 40 && len(out) < max; next++ {
			if r.hog.AS.IsResident(next) {
				out = append(out, next)
			}
		}
		return out
	}})
	return r
}

// start launches both processes; the run stops when the hog ends.
func (r *daemonRun) start() {
	r.hog.Start(true, func(th *kernel.Thread) {
		for pass := 0; pass < 2; pass++ {
			for vpn := 0; vpn < 400; vpn++ {
				th.Touch(vpn, vpn%4 == 0)
				th.Touch(400-vpn%16-1, false) // a hot set the clock keeps invalidating
				th.User(15 * sim.Microsecond)
			}
		}
	})
	r.app.Start(false, func(th *kernel.Thread) {
		as := r.app.AS
		for round := 0; round < 3; round++ {
			base := 16 * round
			for vpn := base; vpn < base+32; vpn++ {
				th.Touch(vpn%64, vpn%3 == 0)
				th.User(40 * sim.Microsecond)
			}
			// Release 12 pages: the first six at priority 0 (freed),
			// the rest at priority 2 (demoted to the far tier).
			vpns := make([]int, 0, 12)
			prios := make([]int, 0, 12)
			for k := 0; k < 12; k++ {
				vpn := (base + 20 + k) % 64
				if !as.IsResident(vpn) {
					continue
				}
				as.InvalidateForRelease(vpn)
				vpns = append(vpns, vpn)
				prios = append(prios, 2*(k/6))
			}
			r.app.HomeReleaser().Enqueue(as, vpns, prios)
			th.SleepIdle(2 * sim.Millisecond)
		}
	})
}

// summary renders everything the daemons decide and when.
func (r *daemonRun) summary() string {
	sys := r.sys
	hl, al := r.hog.AS.Memlock, r.app.AS.Memlock
	return fmt.Sprintf("end=%d daemon=%+v releaser=%+v balancer=%+v daemonTime=%v "+
		"hogLock=%d/%d/%d/%d appLock=%d/%d/%d/%d storms=%d stalls=%d log=%x/%d",
		sys.Now(), sys.DaemonStats(), sys.ReleaserStats(), sys.BalancerStats(), sys.DaemonTime,
		hl.Acquisitions, hl.Contended, hl.WaitTime, hl.HoldTime,
		al.Acquisitions, al.Contended, al.WaitTime, al.HoldTime,
		r.in.Counts().Get(chaos.DaemonStorm), r.in.Counts().Get(chaos.ReleaserStall),
		sha256.Sum256([]byte(r.rec.Log())), r.rec.Len())
}

// TestDaemonSchedulePinned pins the paging daemon's, the releaser's
// and the balancer's decisions and their timing, the CPU time they
// consumed, both memory locks' counters, and a digest of the whole
// event log, for runs on one and on two nodes that take every daemon
// path: a donor pass, clock scans under memory-lock contention, a
// maxrss trim, release batches with far-tier demotion, steal storms,
// releaser stalls and (on two nodes) balancer migrations. The values
// were recorded from the process-per-daemon implementation (each
// daemon a sim process with a goroutine) that the step processes
// replaced.
func TestDaemonSchedulePinned(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		want  string
	}{
		{1, "end=1517402668 daemon={Activations:116 Scanned:1690 Invalidations:988 Stolen:688 Writebacks:187 Trims:40 Donated:40} releaser={Requests:3 PagesRequested:36 Freed:12 SkippedRef:12 SkippedGone:0 Writebacks:4 Demoted:12} balancer={Activations:0 Migrations:0 FramesMoved:0} daemonTime=[0ns 69.272ms 0ns 0ns 505.000us 0ns] " +
			"hogLock=1178/40/13800000/112905000 appLock=164/29/1164000/10082000 storms=22 stalls=2 log=08ac9a17e507eb0e4182c1caa34980f76c5567f24cb1b3bbd0ae67ff1582f8e5/3825"},
		{2, "end=1196326366 daemon={Activations:135 Scanned:1940 Invalidations:1102 Stolen:689 Writebacks:177 Trims:40 Donated:40} releaser={Requests:3 PagesRequested:36 Freed:12 SkippedRef:12 SkippedGone:0 Writebacks:4 Demoted:12} balancer={Activations:5 Migrations:5 FramesMoved:42} daemonTime=[0ns 80.952ms 0ns 0ns 1.970ms 0ns] " +
			"hogLock=1371/25/6350000/132250000 appLock=160/29/1164000/9602000 storms=29 stalls=2 log=c8875d6b13effab15216aed19da864565faae7b5aabc497553ef12d2f8d55d57/4897"},
	} {
		r := newDaemonRun(tc.nodes)
		r.start()
		r.sys.Run(0)
		r.sys.Sim.Close()

		d, rel, b := r.sys.DaemonStats(), r.sys.ReleaserStats(), r.sys.BalancerStats()
		if d.Donated == 0 || d.Trims == 0 || rel.Demoted == 0 || rel.Freed == 0 ||
			r.hog.AS.Memlock.Contended == 0 || r.in.Counts().Get(chaos.DaemonStorm) == 0 ||
			r.in.Counts().Get(chaos.ReleaserStall) == 0 || (tc.nodes > 1) != (b.Migrations > 0) {
			t.Errorf("%d nodes: a daemon path was not taken: %s", tc.nodes, r.summary())
		}
		if got := r.summary(); got != tc.want {
			t.Errorf("%d nodes:\n got %s\nwant %s", tc.nodes, got, tc.want)
		}
	}
}

// TestDaemonsSpawnNoGoroutines checks that a run's goroutine count
// does not depend on how many daemons the machine has: one node runs
// a paging daemon and a releaser, two nodes run two of each plus the
// balancer, and all of them are step processes with no goroutine. The
// goroutines of a closed run are still exiting when Close returns, so
// each count waits for its own to exit, and a count taken while an
// earlier test's are exiting comes out high once; a daemon with a
// goroutine makes two nodes count higher every time.
func TestDaemonsSpawnNoGoroutines(t *testing.T) {
	count := func(nodes int) int {
		defer leakcheck.Settle(runtime.NumGoroutine())
		r := newDaemonRun(nodes)
		defer r.sys.Sim.Close()
		n := -1
		r.hog.Start(true, func(th *kernel.Thread) {
			th.Touch(0, false)
			n = runtime.NumGoroutine()
		})
		r.sys.Run(0)
		return n
	}
	var one, two int
	for try := 0; try < 5; try++ {
		if one, two = count(1), count(2); one >= 0 && two == one {
			return
		}
	}
	t.Fatalf("goroutines during a run: %d on one node, %d on two", one, two)
}
