package disk

import (
	"fmt"
	"strings"
	"testing"

	"memhogs/internal/chaos"
	"memhogs/internal/sim"
)

// scheduleRun drives one array and logs every completion as
// "time:dN/block:op" and every injected fault as "time:site".
type scheduleRun struct {
	s   *sim.Sim
	a   *Array
	log []string
}

func newScheduleRun(cfg Config) *scheduleRun {
	s := sim.New()
	return &scheduleRun{s: s, a: New(s, cfg)}
}

// submit queues page with op; then, if non-nil, runs inside the
// request's Done after the completion is logged.
func (r *scheduleRun) submit(page int64, op Op, then func()) {
	req := &Request{Op: op}
	req.Done = func() {
		r.log = append(r.log, fmt.Sprintf("%d:d%d/%d:%s", r.s.Now(), r.a.DiskFor(page), req.Block, op))
		if then != nil {
			then()
		}
	}
	r.a.Submit(page, req)
}

// TestSchedulePinned pins the exact completion schedule and counters
// of the disk model. The expected values were recorded from the
// process-per-disk implementation (each disk a sim process parked on a
// wait queue, adapters as semaphores) that the event-driven servers
// replaced, so the two must agree on every event.
func TestSchedulePinned(t *testing.T) {
	cases := []struct {
		name  string
		setup func(r *scheduleRun)
		cfg   func(c *Config)
		want  string
		stats Stats
	}{
		{
			// Requests queued before Run, across every disk, meet the
			// per-disk start events at t=0.
			name: "submit-before-run",
			setup: func(r *scheduleRun) {
				for i := int64(0); i < 12; i++ {
					op := Read
					if i%3 == 0 {
						op = Write
					}
					r.submit(i*37, op, nil)
				}
			},
			want: "6186687:d0/0:write 7181967:d2/18:read 9412593:d3/27:write " +
				"10312593:d1/9:read 12847435:d0/37:read 13747435:d2/55:write " +
				"16916018:d1/46:read 17816018:d3/64:read 19372849:d2/92:read " +
				"20938347:d0/74:read 22992434:d3/101:read " +
				"25733550:d1/83:write",
			stats: Stats{Reads: 8, Writes: 4, BusyTime: 89037180, QueueTime: 94420746},
		},
		{
			// Done submits to its own (busy) disk and to others; a
			// process submits to idle disks later, twice in a row so
			// the second lands while the first kick is pending.
			name: "submit-from-done",
			setup: func(r *scheduleRun) {
				r.submit(5, Read, func() {
					r.submit(9, Write, nil)
					r.submit(2, Read, func() { r.submit(6, Read, nil) })
				})
				r.s.Spawn("app", func(p *sim.Proc) {
					p.Sleep(20 * sim.Millisecond)
					r.submit(3, Read, nil)
					r.submit(7, Write, nil)
					p.Sleep(3 * sim.Millisecond)
					r.submit(400, Read, func() { r.submit(11, Read, nil) })
				})
			},
			want: "9563341:d1/1:read 11063341:d1/2:write 16745308:d2/0:read " +
				"18245308:d2/1:read 29186687:d0/100:read 29412593:d3/0:read " +
				"30912593:d3/1:write 32412593:d3/2:read",
			stats: Stats{Reads: 6, Writes: 2, SeqHits: 4, BusyTime: 38344588, QueueTime: 11138499},
		},
		{
			// Two disks on one adapter with fixed positioning: every
			// transfer after the first waits for the channel.
			name: "adapter-contention",
			cfg: func(c *Config) {
				c.NumDisks, c.NumAdapters = 2, 1
				c.PosTimeMin, c.PosTimeMax = 5*sim.Millisecond, 5*sim.Millisecond
			},
			setup: func(r *scheduleRun) {
				for i := int64(0); i < 3; i++ {
					r.submit(i*200, Read, nil)
					r.submit(i*200+1, Write, nil)
				}
			},
			want: "5900000:d0/0:read 6800000:d1/0:write 11800000:d0/100:read " +
				"12700000:d1/100:write 17700000:d0/200:read " +
				"18600000:d1/200:write",
			stats: Stats{Reads: 3, Writes: 3, BusyTime: 36300000, QueueTime: 37200000},
		},
		{
			// A freed adapter passes to its waiter through an event at
			// the current time, not inline: d1's transfer, started by
			// an event already due at 6.6ms, is ahead of d2's handed-on
			// one, so d1 completes first at 7.5ms.
			name: "adapter-handoff-order",
			cfg: func(c *Config) {
				c.PosTimeMin, c.PosTimeMax = 5*sim.Millisecond, 5*sim.Millisecond
			},
			setup: func(r *scheduleRun) {
				r.submit(1, Read, nil)
				r.s.Spawn("app", func(p *sim.Proc) {
					p.Sleep(700 * sim.Microsecond)
					r.submit(400, Read, nil)
					r.submit(402, Read, nil)
					p.Sleep(5300 * sim.Microsecond)
					r.submit(5, Read, nil)
				})
			},
			want:  "5900000:d1/0:read 6600000:d0/100:read 7500000:d1/1:read 7500000:d2/100:read",
			stats: Stats{Reads: 4, SeqHits: 1, BusyTime: 20100000},
		},
		{
			// Submit kicks an idle disk through an event at the current
			// time, not inline: at 5.9ms the app submits to idle d1
			// before d0's transfer ends, yet d0 draws the first
			// disk-slow roll (the fault is armed from 5ms on).
			name: "kick-order",
			cfg: func(c *Config) {
				c.PosTimeMin, c.PosTimeMax = 5*sim.Millisecond, 5*sim.Millisecond
			},
			setup: func(r *scheduleRun) {
				r.a.Chaos = chaos.NewInjector(r.s, nil, chaos.Plan{Seed: 1, Faults: []chaos.Fault{
					{Site: chaos.DiskSlow, Prob: 0.5, Mag: int64(2 * sim.Millisecond), After: 5 * sim.Millisecond},
				}})
				r.submit(0, Read, nil)
				r.submit(4, Read, nil)
				r.s.Spawn("app", func(p *sim.Proc) {
					p.Sleep(5900 * sim.Microsecond)
					r.submit(1, Read, nil)
				})
			},
			want:  "5900000:d0/0:read 7400000:d0/1:read 13800000:d1/0:read",
			stats: Stats{Reads: 3, SeqHits: 1, BusyTime: 13300000, QueueTime: 5900000},
		},
		{
			// CSCAN order with the near-positioning discount.
			name: "sequential",
			cfg:  func(c *Config) { c.NumDisks, c.NumAdapters = 1, 1 },
			setup: func(r *scheduleRun) {
				for _, b := range []int64{100, 0, 1, 101, 2, 50, 33, 500} {
					r.submit(b, Read, nil)
				}
			},
			want: "6186687:d0/0:read 7686687:d0/1:read 9186687:d0/2:read " +
				"10686687:d0/33:read 12186687:d0/50:read 18847435:d0/100:read " +
				"20347435:d0/101:read 28438347:d0/500:read",
			stats: Stats{Reads: 8, SeqHits: 5, BusyTime: 28438347, QueueTime: 85128305},
		},
		{
			// disk-slow spikes and disk-error retries; inside the
			// [30ms, 100ms) window every read attempt fails, so reads
			// there stop at the retry cap.
			name: "chaos",
			setup: func(r *scheduleRun) {
				r.a.Chaos = chaos.NewInjector(r.s, nil, chaos.Plan{Seed: 11, Faults: []chaos.Fault{
					{Site: chaos.DiskSlow, Prob: 0.3, Mag: int64(2 * sim.Millisecond)},
					{Site: chaos.DiskError, Prob: 1, Mag: int64(100 * sim.Microsecond), After: 30 * sim.Millisecond, Until: 100 * sim.Millisecond},
					{Site: chaos.DiskError, Prob: 0.4},
				}})
				r.a.Chaos.OnFault = func(site chaos.Site) {
					r.log = append(r.log, fmt.Sprintf("%d:%s", r.s.Now(), site))
				}
				for i := int64(0); i < 10; i++ {
					op := Read
					if i%4 == 3 {
						op = Write
					}
					r.submit(i*13, op, nil)
				}
				r.s.Spawn("app", func(p *sim.Proc) {
					p.Sleep(29 * sim.Millisecond)
					r.submit(1, Read, nil)
					r.submit(2, Write, nil)
				})
			},
			want: "0:disk-slow 6186687:d0/0:read 6186687:disk-slow " +
				"7181967:d2/6:read 8681967:d2/19:read 9563341:d1/3:read " +
				"9686687:d0/13:read 11063341:disk-error 11186687:disk-error " +
				"11963341:d3/9:write 13463341:d3/22:write 14086687:disk-error " +
				"14363341:d1/16:read 14363341:disk-slow 17863341:d1/29:read " +
				"18986687:disk-error 27886687:d0/26:read 30500000:disk-error " +
				"30500000:d2/0:write 31500000:disk-error 32600000:disk-error " +
				"33900000:disk-error 35600000:disk-error 38100000:disk-error " +
				"42200000:disk-error 49500000:disk-error 63200000:d1/0:read",
			stats: Stats{Reads: 9, Writes: 3, SeqHits: 8, ReadRetries: 12, BusyTime: 97595336, QueueTime: 58945364},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			r := newScheduleRun(cfg)
			tc.setup(r)
			r.s.Run(0)
			r.s.Close()
			got := strings.Join(r.log, " ")
			if got != tc.want {
				t.Errorf("schedule:\n got %s\nwant %s", got, tc.want)
			}
			if st := r.a.Stats(); st != tc.stats {
				t.Errorf("stats:\n got %#v\nwant %#v", st, tc.stats)
			}
		})
	}
}
