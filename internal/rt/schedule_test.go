package rt

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"memhogs/internal/chaos"
	"memhogs/internal/events"
	"memhogs/internal/kernel"
	"memhogs/internal/leakcheck"
	"memhogs/internal/pdpm"
	"memhogs/internal/sim"
	"memhogs/internal/vm"
)

// workerRun is one hinted process on a one-CPU machine with a far
// tier and a far-slow fault plan: its main thread touches more pages
// than fit, so the paging daemon scans its address space under the
// memory lock while the workers serve releases (some demoted to the
// far tier, some left on the free list) and two bursts of prefetches.
type workerRun struct {
	sys   *kernel.System
	p     *kernel.Process
	layer *Layer
	rec   *events.Recorder
	in    *chaos.Injector
}

func newWorkerRun(workers int) *workerRun {
	cfg := kernel.TestConfig()
	cfg.NCPU = 1
	cfg.UserMemPages = 64
	cfg.MinFreePages = 4
	cfg.TargetFreePages = 12
	cfg.Far.Pages = 16
	sys := kernel.NewSystem(cfg)
	rec := events.New(sys.Sim, 0)
	sys.SetEvents(rec)
	in := chaos.NewInjector(sys.Sim, rec, chaos.Plan{Seed: 5, Faults: []chaos.Fault{
		{Site: chaos.FarSlow, Prob: 0.5},
	}})
	sys.SetChaos(in)
	p := sys.NewProcess("app", 256)
	pm := p.AttachPM(0)
	rc := DefaultConfig(ModeAggressive)
	rc.Workers = workers
	return &workerRun{sys: sys, p: p, layer: New(p, pm, rc), rec: rec, in: in}
}

// script is the main thread's body.
func (r *workerRun) script(th *kernel.Thread) {
	l := r.layer
	l.Bind(th)
	for vpn := 0; vpn < 96; vpn++ {
		l.Touch(int64(vpn), vpn%3 == 0)
		l.Work(20000)
	}
	// Releases: tag 1 at priority 0 frees pages to the free list
	// (rescuable); tag 2 at priority 2 demotes them to the far tier.
	for vpn := 80; vpn < 88; vpn++ {
		l.Release(1, 0, int64(vpn))
	}
	for vpn := 88; vpn < 96; vpn++ {
		l.Release(2, 2, int64(vpn))
	}
	th.SleepIdle(2 * sim.Millisecond)
	// Prefetch back the freed and demoted pages and the first pages
	// touched, now swapped out (reads with readahead).
	pages := make([]int64, 0, 56)
	for vpn := 80; vpn < 96; vpn++ {
		pages = append(pages, int64(vpn))
	}
	for vpn := 0; vpn < 40; vpn++ {
		pages = append(pages, int64(vpn))
	}
	l.Prefetch(0, pages)
	for vpn := 40; vpn < 60; vpn++ {
		l.Touch(int64(vpn), false)
		l.Work(10000)
	}
	// A burst of pages never touched, far enough apart that each
	// starts its own readahead cluster, exhausts free memory: the
	// later prefetches are discarded.
	burst := make([]int64, 0, 18)
	for vpn := 100; vpn < 256; vpn += 9 {
		burst = append(burst, int64(vpn))
	}
	l.Prefetch(0, burst)
	th.SleepIdle(200 * sim.Millisecond)
}

// prefetches lists every completed prefetch as "time:vpn:result".
func (r *workerRun) prefetches() string {
	var b strings.Builder
	for _, e := range r.rec.Events() {
		if e.Kind == events.PMPrefetchCall {
			fmt.Fprintf(&b, "%d:%d:%d ", e.At, e.Page, e.A)
		}
	}
	return strings.TrimSpace(b.String())
}

// TestWorkerSchedulePinned pins when each prefetch completes and what
// it did (results: 0 already in, 1 discarded, 2 rescued, 3 read, 4
// promoted), the workers' and the main thread's time buckets, the
// memory lock's counters, the policy module's and the address space's
// counters, and a digest of the whole event log, for a run that takes
// every worker path: rescue, discard, far promotion stretched by
// far-slow, swap read with readahead, and release. The values were
// recorded from the process-per-worker implementation (each worker a
// sim process with a goroutine) that the event-driven workers
// replaced.
func TestWorkerSchedulePinned(t *testing.T) {
	r := newWorkerRun(8)
	defer r.sys.Sim.Close()
	r.p.Start(true, r.script)
	r.sys.Run(0)

	if got, want := r.prefetches(), "119062447:80:2 119162447:81:2 119262447:82:2 119362447:83:2 "+
		"119462447:84:2 119562447:85:2 119662447:86:2 119987447:89:4 "+
		"120017447:1:0 120043447:2:0 120069447:3:0 120167447:90:4 "+
		"120167447:91:4 120167447:92:4 120167447:94:4 120537447:5:0 "+
		"120537447:6:0 120537447:7:0 120537447:8:0 120557447:9:0 "+
		"120577447:10:0 120597447:11:0 121509447:88:4 121509447:93:4 "+
		"121509447:13:0 121509447:14:0 121509447:15:0 121529447:16:0 "+
		"121549447:17:0 121569447:18:0 121589447:19:0 121961447:21:0 "+
		"121961447:22:0 121961447:23:0 122221447:25:0 122221447:26:0 "+
		"122221447:27:0 122241447:28:0 122261447:29:0 122281447:30:0 "+
		"122301447:31:0 122633447:34:0 122633447:35:0 122653447:36:0 "+
		"122893447:38:0 127460872:0:3 131060872:4:3 138260872:12:3 "+
		"145460872:20:3 149060872:24:3 155360872:33:3 158960872:37:3 "+
		"194222312:127:1 194222312:136:1 194222312:145:1 "+
		"194222312:154:1 194222312:163:1 194794312:190:1 "+
		"194794312:199:1 194794312:208:1 195326312:235:1 "+
		"197800872:100:3 200500872:109:3 208600872:118:3 "+
		"212200872:172:3 218500872:181:3 222100872:217:3 "+
		"230200872:226:3 233800872:244:3 240100872:253:3"; got != want {
		t.Errorf("prefetch completions:\n got %s\nwant %s", got, want)
	}
	if got, want := r.p.WorkerTimes, buckets(0, 5405000, 0, 24022000, 5135600, 364533455); got != want {
		t.Errorf("WorkerTimes = %v, want %v", got, want)
	}
	if got, want := r.p.Times, buckets(2127200, 6250000, 84000, 1305000, 320000, 181256112); got != want {
		t.Errorf("Times = %v, want %v", got, want)
	}
	ml := r.p.AS.Memlock
	if ml.Acquisitions != 237 || ml.Contended != 70 || ml.WaitTime != 27497000 || ml.HoldTime != 13924000 {
		t.Errorf("Memlock acquisitions/contended/wait/hold = %d/%d/%d/%d, want 237/70/27497000/13924000",
			ml.Acquisitions, ml.Contended, ml.WaitTime, ml.HoldTime)
	}
	if got, want := r.p.PM.Stats, (pdpm.Stats{PrefetchRequests: 70, PrefetchAlreadyIn: 31, PrefetchDiscarded: 9, PrefetchRescued: 7, PrefetchRead: 16, PrefetchPromoted: 7, ReleaseRequests: 14, ReleasePages: 14, SharedRefreshes: 256}); got != want {
		t.Errorf("pdpm.Stats = %+v, want %+v", got, want)
	}
	if got, want := r.p.AS.Stats, (vm.Stats{Touches: 116, SoftFaults: 99, SoftFaultsDaemon: 3, RescueFaults: 8, HardFaults: 16, ReadaheadIns: 178, PageIns: 210, Writebacks: 32, StolenPages: 159, ReleasedPages: 7, PeakResident: 60, FarFaults: 0, Demotions: 7, Promotions: 7, PeakFarResident: 7}); got != want {
		t.Errorf("vm.Stats = %+v, want %+v", got, want)
	}
	if got := r.in.Counts().Get(chaos.FarSlow); got != 2 {
		t.Errorf("far-slow fired %d times, want 2", got)
	}
	if got := r.sys.Now(); got != 393342312 {
		t.Errorf("run ended at %d, want 393342312", got)
	}
	if got, want := fmt.Sprintf("%x %d", sha256.Sum256([]byte(r.rec.Log())), r.rec.Len()),
		"8924c56c19e35f4f8aa6bbb416b48ad932e33eb9dbc6b998eb3dfc8216b51a9b 1121"; got != want {
		t.Errorf("event log digest = %s, want %s", got, want)
	}
}

func buckets(ns ...int64) (b [vm.NumBuckets]sim.Time) {
	for i, d := range ns {
		b[i] = sim.Time(d)
	}
	return b
}

// TestWorkersSpawnNoGoroutines checks that a hinted run's goroutine
// count does not grow with the number of workers: the workers are step
// processes, with no goroutine of their own. The goroutines of a
// closed run are still exiting when Close returns, so each count waits
// for its own to exit, and a count taken while an earlier test's are
// exiting comes out high once; a worker with a goroutine makes 32
// workers count higher every time.
func TestWorkersSpawnNoGoroutines(t *testing.T) {
	count := func(workers int) int {
		defer leakcheck.Settle(runtime.NumGoroutine())
		r := newWorkerRun(workers)
		defer r.sys.Sim.Close()
		n := -1
		r.p.Start(true, func(th *kernel.Thread) {
			r.script(th)
			n = runtime.NumGoroutine()
		})
		r.sys.Run(0)
		return n
	}
	var one, many int
	for try := 0; try < 5; try++ {
		if one, many = count(1), count(32); one >= 0 && many == one {
			return
		}
	}
	t.Fatalf("goroutines during a hinted run: %d with 1 worker, %d with 32", one, many)
}
