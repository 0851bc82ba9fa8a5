package events

import (
	"sort"
	"strconv"
	"unicode/utf8"
	"unsafe"

	"memhogs/internal/sim"
)

// The exporters append into one []byte, walking the ring in place
// (each) instead of copying it out through Events. Log measures its
// lines first (logLen) and allocates exactly that. Chrome sizes its
// buffer from the retained-event count: the per-event estimate sits a
// little above the widest per-cell mean over the pinned trace matrix
// (109), so a typical export never regrows it. summaryBytes covers the
// counter lines (about 40 bytes per kind) and the totals line, or
// Chrome's otherData; actorBytes one thread_name record.
const (
	chromeBytesPerEvent = 112
	summaryBytes        = int(KindCount)*40 + 64
	actorBytes          = 96
)

// kindText is one kind's constant export text.
type kindText struct {
	logName    string    // the name padded to 22 runes, as %-22s
	logArgs    [2]string // " free=" for a labelled A/B; "" omits it
	chromeOpen string    // `,\n{"name":"fault-soft","ph":"i","ts":`
	chromeArgs [2]string // `"free":` for a labelled A/B; "" omits it
}

// kindTexts holds every kind's export text; kindsByName is the kinds
// in name order, the order of Chrome's otherData keys.
var kindTexts, kindsByName = func() (texts [KindCount]kindText, byName [KindCount]Kind) {
	for k := Kind(0); k < KindCount; k++ {
		t := &texts[k]
		t.logName = string(appendPadded(nil, k.String(), 22))
		t.chromeOpen = ",\n{\"name\":" + strconv.Quote(k.String()) + `,"ph":"i","ts":`
		for i, label := range argLabels[k] {
			if label != "" {
				t.logArgs[i] = " " + label + "="
				t.chromeArgs[i] = strconv.Quote(label) + ":"
			}
		}
		byName[k] = k
	}
	sort.Slice(byName[:], func(i, j int) bool { return byName[i].String() < byName[j].String() })
	return texts, byName
}()

// appendPadded appends s left-aligned in a field of width runes, as
// fmt's %-<width>s pads it.
func appendPadded(b []byte, s string, width int) []byte {
	b = append(b, s...)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}

// appendTime appends t right-aligned in a 12-byte field, as %12s pads
// String's text (which is ASCII, so bytes are runes).
func appendTime(b []byte, t sim.Time) []byte {
	const width = 12
	start := len(b)
	b = t.AppendFormat(b)
	if n := len(b) - start; n < width {
		b = append(b, "            "[:width-n]...)
		copy(b[start+width-n:], b[start:start+n])
		copy(b[start:], "            "[:width-n])
	}
	return b
}

// Log renders the retained events as a human-readable merged log: one
// line per event, all tracks interleaved in virtual-time order,
// followed by the exact counter registry and the drop count.
func (r *Recorder) Log() string {
	summary := r.appendCounterSummary(make([]byte, 0, summaryBytes))
	b := make([]byte, 0, r.logLen()+len(summary))
	r.each(func(e *Event) {
		text := &kindTexts[e.Kind]
		b = appendTime(b, e.At)
		b = append(b, "  "...)
		b = appendPadded(b, e.Actor, 11)
		b = append(b, ' ')
		b = append(b, text.logName...)
		if e.Page >= 0 {
			b = strconv.AppendInt(append(b, " page="...), int64(e.Page), 10)
		}
		if e.Target != "" {
			b = append(append(b, " of="...), e.Target...)
		}
		if text.logArgs[0] != "" {
			b = strconv.AppendInt(append(b, text.logArgs[0]...), e.A, 10)
		}
		if text.logArgs[1] != "" {
			b = strconv.AppendInt(append(b, text.logArgs[1]...), e.B, 10)
		}
		b = append(b, '\n')
	})
	// The string shares b's bytes, as strings.Builder.String does,
	// instead of copying a buffer nothing touches again. b is full, so
	// the string keeps no spare capacity alive.
	b = append(b, summary...)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// logLen returns the length of Log's event lines: the bytes Log's walk
// appends, computed without formatting anything.
func (r *Recorder) logLen() int {
	n := 0
	r.each(func(e *Event) {
		text := &kindTexts[e.Kind]
		n += timeLen(e.At) + len("  ") + paddedLen(e.Actor, 11) + len(" ") + len(text.logName) + len("\n")
		if e.Page >= 0 {
			n += len(" page=") + intLen(int64(e.Page))
		}
		if e.Target != "" {
			n += len(" of=") + len(e.Target)
		}
		if text.logArgs[0] != "" {
			n += len(text.logArgs[0]) + intLen(e.A)
		}
		if text.logArgs[1] != "" {
			n += len(text.logArgs[1]) + intLen(e.B)
		}
	})
	return n
}

// timeLen is the length appendTime appends. Below a million seconds
// AppendFormat's text fits the 12-byte field ("1000000.000s" at most),
// which covers every trace; other times are formatted to be measured.
func timeLen(t sim.Time) int {
	if 0 <= t && t < 1_000_000*sim.Second {
		return 12
	}
	var buf [32]byte
	return max(12, len(t.AppendFormat(buf[:0])))
}

// paddedLen is the length appendPadded appends.
func paddedLen(s string, width int) int {
	n := len(s)
	if c := utf8.RuneCountInString(s); c < width {
		n += width - c
	}
	return n
}

// intLen is the length strconv.AppendInt(b, v, 10) appends.
func intLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// CounterSummary renders the counter registry: one line per nonzero
// kind in declaration order, plus retained/dropped totals.
func (r *Recorder) CounterSummary() string {
	return string(r.appendCounterSummary(make([]byte, 0, summaryBytes)))
}

func (r *Recorder) appendCounterSummary(b []byte) []byte {
	counts := r.Counts()
	var total int64
	for k := Kind(0); k < KindCount; k++ {
		if counts[k] == 0 {
			continue
		}
		total += counts[k]
		b = append(append(b, "counter "...), kindTexts[k].logName...)
		b = strconv.AppendInt(append(b, ' '), counts[k], 10)
		b = append(b, '\n')
	}
	b = strconv.AppendInt(append(b, "events "...), total, 10)
	b = strconv.AppendInt(append(b, " recorded, "...), int64(r.Len()), 10)
	b = strconv.AppendInt(append(b, " retained, "...), r.Dropped(), 10)
	return append(b, " dropped by the ring\n"...)
}

// Chrome renders the retained events as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing): one thread track per
// actor, instant events for decisions, and a counter track per process
// from the shared-page refreshes (usage vs limit over time). The JSON
// is built by hand with fixed key order so the bytes are fully
// deterministic.
func (r *Recorder) Chrome() []byte {
	// Assign one tid per actor in order of first appearance.
	type track struct {
		tid     int
		counter string // the quoted name of the actor's counter track
	}
	// Nearly every event shares its predecessor's actor (99% over the
	// pinned trace matrix), so both walks probe tracks only when the
	// actor changes.
	tracks := map[string]track{}
	var actors []string
	var last string
	seen := false
	r.each(func(e *Event) {
		if seen && e.Actor == last {
			return
		}
		seen, last = true, e.Actor
		if _, ok := tracks[e.Actor]; !ok {
			tracks[e.Actor] = track{len(tracks) + 1, strconv.Quote("mem[" + e.Actor + "]")}
			actors = append(actors, e.Actor)
		}
	})

	b := make([]byte, 0, r.Len()*chromeBytesPerEvent+len(actors)*actorBytes+summaryBytes)
	b = append(b, "{\"traceEvents\":[\n"...)
	b = append(b, `{"name":"process_name","ph":"M","pid":1,"args":{"name":"memhogs"}}`...)
	for _, a := range actors {
		b = append(b, ",\n"+`{"name":"thread_name","ph":"M","pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(tracks[a].tid), 10)
		b = strconv.AppendQuote(append(b, `,"args":{"name":`...), a)
		b = append(b, "}}"...)
	}
	var tr track
	seen = false
	r.each(func(e *Event) {
		if !seen || e.Actor != last {
			seen, last, tr = true, e.Actor, tracks[e.Actor]
		}
		if e.Kind == PMRefresh {
			// Counter track: shared-page usage vs limit per process.
			b = append(append(b, ",\n"+`{"name":`...), tr.counter...)
			b = e.At.AppendIn(append(b, `,"ph":"C","ts":`...), sim.Microsecond)
			b = strconv.AppendInt(append(b, `,"pid":1,"tid":`...), int64(tr.tid), 10)
			b = strconv.AppendInt(append(b, `,"args":{"current":`...), e.A, 10)
			b = strconv.AppendInt(append(b, `,"limit":`...), e.B, 10)
			b = append(b, "}}"...)
			return
		}
		text := &kindTexts[e.Kind]
		b = e.At.AppendIn(append(b, text.chromeOpen...), sim.Microsecond)
		b = strconv.AppendInt(append(b, `,"pid":1,"tid":`...), int64(tr.tid), 10)
		b = append(b, `,"s":"t","args":{`...)
		sep := ""
		if e.Page >= 0 {
			b = strconv.AppendInt(append(b, `"page":`...), int64(e.Page), 10)
			sep = ","
		}
		if e.Target != "" {
			b = strconv.AppendQuote(append(append(b, sep...), `"of":`...), e.Target)
			sep = ","
		}
		if text.chromeArgs[0] != "" {
			b = strconv.AppendInt(append(append(b, sep...), text.chromeArgs[0]...), e.A, 10)
			sep = ","
		}
		if text.chromeArgs[1] != "" {
			b = strconv.AppendInt(append(append(b, sep...), text.chromeArgs[1]...), e.B, 10)
		}
		b = append(b, "}}"...)
	})
	b = append(b, "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{"...)
	counts := r.Counts()
	for _, k := range kindsByName {
		if counts[k] != 0 {
			b = strconv.AppendQuote(b, k.String())
			b = strconv.AppendInt(append(b, ':'), counts[k], 10)
			b = append(b, ',')
		}
	}
	b = strconv.AppendInt(append(b, `"dropped":`...), r.Dropped(), 10)
	return append(b, "}\n}\n"...)
}
