package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"

	"memhogs/internal/compiler"
	"memhogs/internal/kernel"
	"memhogs/internal/rt"
	"memhogs/internal/workload"
)

func TestBucket(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mapaccess1_fast64", "memhogs/internal/compiler.(*Image).byteOf", "memhogs/internal/sim.(*Sim).Run"}, "compiler"},
		{[]string{"memhogs/internal/analysis/hotalloc.run"}, "analysis"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sched"},
		{[]string{"internal/runtime/syscall.Syscall6", "runtime.usleep", "runtime.sysmon"}, "sched"},
		{[]string{"crypto/sha256.block", "main.sha", "main.runPaging"}, "other"},
	}
	for _, c := range cases {
		if got := bucket(c.frames); got != c.want {
			t.Errorf("bucket(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestProfileFindsBusyFunction profiles a loop that only compiles a
// benchmark and checks the reader charges most of the CPU time spent in
// simulator packages to the compiler's bucket. (Under -race much of the
// time lands in the race runtime's C frames, which count as "other".)
func TestProfileFindsBusyFunction(t *testing.T) {
	spec := workload.CgmScaled()
	k := kernel.TestConfig()
	tgt := compiler.DefaultTarget(k.PageSize, k.UserMemPages)
	tgt.Prefetch, tgt.Release = rt.ModeBuffered.UsesPrefetch(), rt.ModeBuffered.UsesRelease()

	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	prog := spec.Program(nil)
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if _, err := compiler.Compile(prog, tgt); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	samples, err := readCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byBucket := cpuByBucket(samples)
	var total float64
	for b, s := range byBucket {
		if b != "gc" && b != "sched" && b != "other" {
			total += s
		}
	}
	if total < 0.2 {
		t.Skipf("only %.2fs of CPU samples in simulator packages", total)
	}
	if share := byBucket["compiler"] / total; share < 0.5 {
		t.Errorf("compiler bucket holds %.0f%% of %.2fs, want most of it (buckets %v)", 100*share, total, byBucket)
	}
}

// TestReadCPUProfileFrameOrder decodes a hand-built profile whose one
// sample has an inlined leaf, so reading lines or locations in the
// wrong order changes the bucket.
func TestReadCPUProfileFrameOrder(t *testing.T) {
	varint := func(b []byte, v uint64) []byte {
		for ; v >= 0x80; v >>= 7 {
			b = append(b, byte(v)|0x80)
		}
		return append(b, byte(v))
	}
	num := func(b []byte, field int, v uint64) []byte { return varint(varint(b, uint64(field)<<3), v) }
	msg := func(b []byte, field int, payload []byte) []byte {
		return append(varint(varint(b, uint64(field)<<3|2), uint64(len(payload))), payload...)
	}
	var p []byte
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds",
		"memhogs/internal/sim.(*Sim).Run", "memhogs/internal/compiler.(*runner).exec", "memhogs/internal/vm.(*AS).Touch"} {
		p = msg(p, profStringTable, []byte(s))
	}
	p = msg(p, profSampleType, num(num(nil, 1, 1), 2, 2))
	p = msg(p, profSampleType, num(num(nil, 1, 3), 2, 4))
	for id, name := range []uint64{5, 6, 7} {
		p = msg(p, profFunction, num(num(nil, functionID, uint64(id+1)), functionName, name))
	}
	// Location 1 is vm inlined into compiler; location 2 is sim.
	p = msg(p, profLocation, msg(msg(num(nil, locationID, 1), locationLine, num(nil, lineFunction, 3)), locationLine, num(nil, lineFunction, 2)))
	p = msg(p, profLocation, msg(num(nil, locationID, 2), locationLine, num(nil, lineFunction, 1)))
	p = msg(p, profSample, msg(msg(nil, sampleLocationID, varint(varint(nil, 1), 2)), sampleValue, varint(varint(nil, 1), 10_000_000)))

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := readCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].nanos != 10_000_000 {
		t.Fatalf("samples = %+v, want one of 10ms", samples)
	}
	if got := cpuByBucket(samples); got["vm"] != 0.01 || len(got) != 1 {
		t.Errorf("buckets = %v, want vm: 0.01 (frames %q)", got, samples[0].frames)
	}
}

func TestReadCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := readCPUProfile([]byte("not a profile")); err == nil {
		t.Error("readCPUProfile accepted bytes that are not gzip")
	}
}
