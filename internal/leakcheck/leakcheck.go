// Package leakcheck fails a test binary whose tests leave goroutines
// running. Simulated processes are goroutines, so a run that does not
// close its simulator leaks one per process still parked, and each
// keeps the run's whole machine reachable.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// Main runs the tests and fails the binary, printing every goroutine's
// stack, when more goroutines are alive after them than before. Call
// it from TestMain.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if after := Settle(before); after > before {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines before the tests, %d after\n", before, after)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1) // diagnostics only
			code = 1
		}
	}
	os.Exit(code)
}

// Settle waits up to a second for the goroutine count to fall to want
// and returns the count then. A goroutine that has handed control
// back is still exiting when the call that resumed it returns.
func Settle(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}
