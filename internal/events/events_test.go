package events

import (
	"encoding/json"
	"strings"
	"testing"

	"memhogs/internal/sim"
)

func TestRingReportsDropsInsteadOfGrowing(t *testing.T) {
	s := sim.New()
	r := New(s, 8)
	for i := 0; i < 100; i++ {
		r.Emit(DaemonSteal, "pageoutd", "app", i, 0, 0)
	}
	if r.Len() != 8 {
		t.Fatalf("ring grew: Len = %d, want 8", r.Len())
	}
	if r.Dropped() != 92 {
		t.Fatalf("Dropped = %d, want 92", r.Dropped())
	}
	if got := r.Counts().Get(DaemonSteal); got != 100 {
		t.Fatalf("counter lost events under drops: %d, want 100", got)
	}
	// The ring keeps the most recent events.
	evs := r.Events()
	if len(evs) != 8 || evs[0].Page != 92 || evs[7].Page != 99 {
		t.Fatalf("ring did not keep the newest events: %+v", evs)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Emit(FaultHard, "app", "", 1, 0, 0) // must not panic
	if r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Fatal("nil recorder not inert")
	}
	if (r.Counts() != Counts{}) {
		t.Fatal("nil recorder has counts")
	}
	// The exporters render an empty trace, the same bytes as a fresh
	// recorder that saw nothing.
	const summary = "events 0 recorded, 0 retained, 0 dropped by the ring\n"
	const chrome = "{\"traceEvents\":[\n" +
		`{"name":"process_name","ph":"M","pid":1,"args":{"name":"memhogs"}}` +
		"\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{\"dropped\":0}\n}\n"
	empty := New(sim.New(), 0)
	for _, rec := range []*Recorder{r, empty} {
		if got := rec.Log(); got != summary {
			t.Errorf("Log() = %q, want %q", got, summary)
		}
		if got := rec.CounterSummary(); got != summary {
			t.Errorf("CounterSummary() = %q, want %q", got, summary)
		}
		if got := string(rec.Chrome()); got != chrome {
			t.Errorf("Chrome() = %q, want %q", got, chrome)
		}
	}
}

func TestLogAndCounterSummary(t *testing.T) {
	s := sim.New()
	r := New(s, 0)
	r.Emit(FaultSoft, "app", "", 3, 1, 0)
	r.Emit(DaemonSteal, "pageoutd", "app", 3, 17, 0)
	log := r.Log()
	for _, want := range []string{"fault-soft", "daemon-steal", "page=3", "of=app", "free=17",
		"counter fault-soft", "0 dropped"} {
		if !strings.Contains(log, want) {
			t.Errorf("log missing %q:\n%s", want, log)
		}
	}
}

func TestChromeIsValidJSON(t *testing.T) {
	s := sim.New()
	r := New(s, 0)
	r.Emit(FaultHard, "app", "", 7, 0, 0)
	r.Emit(PMRefresh, "app", "", -1, 10, 20)
	r.Emit(ReleaserFree, "releaserd", "app", 7, 0, 1)
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
		OtherData   map[string]int64         `json:"otherData"`
	}
	raw := r.Chrome()
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, raw)
	}
	// 2 metadata (process + 2 threads actually = 3) + 3 events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("traceEvents = %d entries, want 6:\n%s", len(doc.TraceEvents), raw)
	}
	if doc.OtherData["fault-hard"] != 1 || doc.OtherData["dropped"] != 0 {
		t.Fatalf("otherData counters wrong: %v", doc.OtherData)
	}
	// Deterministic bytes.
	if string(raw) != string(r.Chrome()) {
		t.Fatal("chrome export not deterministic")
	}
}

// BenchmarkEmitDisabled guards the "near-zero overhead when disabled"
// requirement: this is the full cost an instrumented hot path pays
// when no recorder is installed.
func BenchmarkEmitDisabled(b *testing.B) {
	var r *Recorder
	for i := 0; i < b.N; i++ {
		r.Emit(RTReleaseBuffer, "app", "", i, 1, 0)
	}
}

// BenchmarkEmitEnabled is the recording-on cost per event.
func BenchmarkEmitEnabled(b *testing.B) {
	r := New(sim.New(), 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Emit(RTReleaseBuffer, "app", "", i, 1, 0)
	}
}
