package events

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"memhogs/internal/sim"
)

// The ref* functions are the fmt-based exporters the append-based ones
// replaced, frozen as the reference FuzzExport compares against. They
// read the recorder only through its exported methods.

func refLog(r *Recorder) string {
	var b strings.Builder
	for _, e := range r.Events() {
		fmt.Fprintf(&b, "%12s  %-11s %-22s", e.At, e.Actor, e.Kind)
		if e.Page >= 0 {
			fmt.Fprintf(&b, " page=%d", e.Page)
		}
		if e.Target != "" {
			fmt.Fprintf(&b, " of=%s", e.Target)
		}
		labels := argLabels[e.Kind]
		if labels[0] != "" {
			fmt.Fprintf(&b, " %s=%d", labels[0], e.A)
		}
		if labels[1] != "" {
			fmt.Fprintf(&b, " %s=%d", labels[1], e.B)
		}
		b.WriteByte('\n')
	}
	b.WriteString(refCounterSummary(r))
	return b.String()
}

func refCounterSummary(r *Recorder) string {
	var b strings.Builder
	counts := r.Counts()
	var total int64
	for k := Kind(0); k < KindCount; k++ {
		if counts[k] == 0 {
			continue
		}
		total += counts[k]
		fmt.Fprintf(&b, "counter %-22s %d\n", k, counts[k])
	}
	fmt.Fprintf(&b, "events %d recorded, %d retained, %d dropped by the ring\n",
		total, r.Len(), r.Dropped())
	return b.String()
}

func refChrome(r *Recorder) []byte {
	var b strings.Builder
	evs := r.Events()
	tids := map[string]int{}
	var actors []string
	for _, e := range evs {
		if _, ok := tids[e.Actor]; !ok {
			tids[e.Actor] = len(tids) + 1
			actors = append(actors, e.Actor)
		}
	}
	b.WriteString("{\"traceEvents\":[\n")
	b.WriteString(`{"name":"process_name","ph":"M","pid":1,"args":{"name":"memhogs"}}`)
	for _, a := range actors {
		fmt.Fprintf(&b, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%s}}",
			tids[a], strconv.Quote(a))
	}
	for _, e := range evs {
		ts := float64(e.At) / 1e3
		if e.Kind == PMRefresh {
			fmt.Fprintf(&b, ",\n{\"name\":%s,\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"current\":%d,\"limit\":%d}}",
				strconv.Quote("mem["+e.Actor+"]"), ts, tids[e.Actor], e.A, e.B)
			continue
		}
		fmt.Fprintf(&b, ",\n{\"name\":%s,\"ph\":\"i\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"s\":\"t\",\"args\":{",
			strconv.Quote(e.Kind.String()), ts, tids[e.Actor])
		first := true
		arg := func(key string, val string) {
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, "%s:%s", strconv.Quote(key), val)
		}
		if e.Page >= 0 {
			arg("page", strconv.Itoa(e.Page))
		}
		if e.Target != "" {
			arg("of", strconv.Quote(e.Target))
		}
		labels := argLabels[e.Kind]
		if labels[0] != "" {
			arg(labels[0], strconv.FormatInt(e.A, 10))
		}
		if labels[1] != "" {
			arg(labels[1], strconv.FormatInt(e.B, 10))
		}
		b.WriteString("}}")
	}
	b.WriteString("\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{")
	counts := r.Counts()
	var keys []string
	kv := map[string]int64{}
	for k := Kind(0); k < KindCount; k++ {
		if counts[k] != 0 {
			keys = append(keys, k.String())
			kv[k.String()] = counts[k]
		}
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d", strconv.Quote(k), kv[k])
	}
	if len(keys) > 0 {
		b.WriteByte(',')
	}
	fmt.Fprintf(&b, "\"dropped\":%d}\n}\n", r.Dropped())
	return []byte(b.String())
}

// emitAt records one event and restamps it with at, so a test can
// place events on any virtual time without running the simulator.
func emitAt(r *Recorder, at sim.Time, k Kind, actor, target string, page int, a, b int64) {
	r.Emit(k, actor, target, page, a, b)
	r.slot((r.head + r.n - 1) % r.ringCap).At = at
}

// fuzzTimes are the virtual times FuzzExport stamps events with: zero,
// both sides of every ns/us/ms/s unit boundary, three-decimal ties, and
// the 30-minute trace horizon.
var fuzzTimes = []sim.Time{
	0, 1, 999, 1000, 1001, 1500, 999_999, 1_000_000, 1_000_500, 1_000_001,
	999_999_999, 1_000_000_000, 1_000_000_500, 1_000_000_001, 2_500_000,
	1_234_567_890, 30 * 60 * sim.Second,
}

// FuzzExport builds a recorder from a fuzzed script and checks Log,
// CounterSummary and Chrome byte for byte against the fmt-based
// reference. names is a NUL-separated pool of actor/target names (an
// empty field is a real empty name); each 8-byte script record emits
// one event: kind, actor, target, page, A, B and time selectors.
// capacity below the number of records makes the ring wrap.
func FuzzExport(f *testing.F) {
	script := func(recs ...[8]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r[:]...)
		}
		return out
	}
	var every []byte
	for i := 0; i < 2*int(KindCount); i++ {
		every = append(every, byte(i), byte(i), byte(i*3), byte(i*37), byte(i*11), byte(255-i), byte(i), byte(i*7))
	}
	f.Add(uint16(0), "app\x00pageoutd\x00releaserd", every)
	f.Add(uint16(5), "app\x00pageoutd\x00releaserd", every) // wraps
	f.Add(uint16(3), "a\"q\x00back\\slash\x00\x00naïve-Ünïcödé\x00a-very-long-actor-name", every)
	f.Add(uint16(0), "日本語のプロセス\x00x", script(
		[8]byte{byte(PMRefresh), 0, 1, 0, 200, 100, 0, 0},
		[8]byte{byte(DaemonSteal), 1, 0, 255, 1, 2, 16, 9},
	))
	f.Add(uint16(2), "", script([8]byte{byte(FaultHard), 0, 0, 0, 0, 0, 0, 0}))
	f.Add(uint16(1), "\x00", []byte{})
	f.Fuzz(func(t *testing.T, capacity uint16, names string, script []byte) {
		pool := strings.Split(names, "\x00")
		r := New(sim.New(), int(capacity%64))
		for len(script) >= 8 {
			rec := script[:8]
			script = script[8:]
			page := int(rec[3]) - 1 // 0 -> -1, not page-scoped
			if rec[3] == 255 {
				page = 1 << 40
			}
			// rec[6] picks a boundary time, or rec[6:8] scaled into
			// [0, 1<<52) ns for anything in between.
			var at sim.Time
			if int(rec[6]) < len(fuzzTimes) {
				at = fuzzTimes[rec[6]]
			} else {
				at = sim.Time(binary.LittleEndian.Uint16(rec[6:8])) << 36 >> (rec[7] % 37)
			}
			a := int64(int8(rec[4])) * int64(rec[5]) << (rec[5] % 48)
			emitAt(r, at, Kind(rec[0])%KindCount, pool[int(rec[1])%len(pool)], pool[int(rec[2])%len(pool)],
				page, a, -a+int64(rec[5]))
		}
		if got, want := r.Log(), refLog(r); got != want {
			t.Fatalf("Log differs from the fmt reference:\ngot:\n%s\nwant:\n%s", got, want)
		}
		if got, want := r.CounterSummary(), refCounterSummary(r); got != want {
			t.Fatalf("CounterSummary differs:\ngot:\n%s\nwant:\n%s", got, want)
		}
		got, want := r.Chrome(), refChrome(r)
		if !bytes.Equal(got, want) {
			t.Fatalf("Chrome differs from the fmt reference:\ngot:\n%s\nwant:\n%s", got, want)
		}
		// Names are Go-quoted, which is JSON for printable UTF-8 (what
		// process and daemon names are) but not for control bytes.
		if printable(pool) && !json.Valid(got) {
			t.Fatalf("Chrome export is not valid JSON:\n%s", got)
		}
	})
}

// printable reports whether every name is valid UTF-8 made of
// printable runes, the names strconv.Quote leaves JSON-compatible.
func printable(names []string) bool {
	for _, s := range names {
		if !utf8.ValidString(s) {
			return false
		}
		for _, c := range s {
			if !strconv.IsPrint(c) {
				return false
			}
		}
	}
	return true
}

// fullRing returns a 1<<18-event recorder that has wrapped once: the
// trace capacity memhogs.Trace uses, filled with every kind from a few
// actors at times spanning all four units.
func fullRing() *Recorder {
	const capacity = 1 << 18
	actors := []string{"app", "pageoutd", "releaserd", "cgm-worker"}
	r := New(sim.New(), capacity)
	for i := 0; i < capacity+capacity/4; i++ {
		k := Kind(i % int(KindCount))
		target := ""
		if k == DaemonSteal || k == ReleaserFree {
			target = "app"
		}
		emitAt(r, sim.Time(i)*7919, k, actors[i%len(actors)], target, i%4096-1, int64(i%97), int64(i%2))
	}
	return r
}

var exportSink int

func BenchmarkExportLog(b *testing.B) {
	r := fullRing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exportSink += len(r.Log())
	}
}

func BenchmarkExportChrome(b *testing.B) {
	r := fullRing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exportSink += len(r.Chrome())
	}
}
