//go:build race

package sim

// raceEnabled reports a -race build. TestTimeFormatMatchesFmt is
// single-goroutine arithmetic, so under the race detector it takes
// its -short draw count.
const raceEnabled = true
