package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"memhogs/internal/rt"
	"memhogs/internal/workload"
)

// This file is the campaign engine: every experiment campaign lists
// its planned runs up front as plain cell values and hands them, with
// one per-cell run function, to runCells. Each simulation run is a
// self-contained deterministic discrete-event simulation, so execution
// order cannot affect any result, and runCells returns results in cell
// order: the assembled dataset, and therefore every rendered figure and
// table, is byte-identical whether the campaign ran on one worker or
// many.

// cell is one benchmark × version run of a campaign; campaigns with a
// further axis (a sleep time, a DRAM:far ratio, a fault class) embed
// it. A nil spec is the run-alone baseline: the interactive task on an
// otherwise idle machine.
type cell struct {
	spec *workload.Spec
	mode rt.Mode
}

func (c cell) String() string { return c.spec.Name + "/" + c.mode.String() }

// grid enumerates specs × modes, benchmark-major.
func grid(specs []*workload.Spec, modes []rt.Mode) []cell {
	cells := make([]cell, 0, len(specs)*len(modes))
	for _, spec := range specs {
		for _, mode := range modes {
			cells = append(cells, cell{spec, mode})
		}
	}
	return cells
}

// byBenchMode files each cell's result under [bench][mode].
func byBenchMode[R any](cells []cell, res []R) map[string]map[rt.Mode]R {
	m := map[string]map[rt.Mode]R{}
	for i, c := range cells {
		entry(m, c.spec.Name)[c.mode] = res[i]
	}
	return m
}

// entry returns m[k], making it first if absent.
func entry[K, K2 comparable, V any](m map[K]map[K2]V, k K) map[K2]V {
	if m[k] == nil {
		m[k] = map[K2]V{}
	}
	return m[k]
}

// workers resolves the pool size: the Workers knob if set, otherwise
// GOMAXPROCS.
func (o Opts) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// runCells runs every cell on a pool of o.workers() goroutines and
// returns the results in cell order. A cell that succeeds writes
// exactly one "label: summary" line to o.Progress (perfbench counts
// these lines as the campaign's operations); a cell that fails returns
// its error as "label: err". Lines are written atomically and arrive
// in completion order, so a summary must depend only on its own cell.
//
// Workers pull cells in order. The first failure cancels every cell
// not yet started; cells already in flight run to completion. The
// returned error is deterministic even when several cells fail:
// because cells start in order and started cells always finish and
// record, the lowest-index failing cell is always among the recorded
// failures, and it is the one reported.
func runCells[C, R any](o Opts, cells []C, label func(C) string, run func(C) (R, string, error)) ([]R, error) {
	res := make([]R, len(cells))
	var progress sync.Mutex // serializes progress lines
	do := func(i int) error {
		r, summary, err := run(cells[i])
		if err != nil {
			return fmt.Errorf("%s: %w", label(cells[i]), err)
		}
		res[i] = r
		if o.Progress != nil {
			progress.Lock()
			fmt.Fprintf(o.Progress, "%s: %s\n", label(cells[i]), summary)
			progress.Unlock()
		}
		return nil
	}

	n := o.workers()
	if n > len(cells) {
		n = len(cells)
	}
	if n <= 1 {
		for i := range cells {
			if err := do(i); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	var (
		mu       sync.Mutex // guards next, firstIdx and firstErr
		next     int
		firstIdx = len(cells)
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if firstErr != nil || next >= len(cells) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if err := do(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}
