package sim

import "testing"

// TestFIFOOrderAcrossCompaction interleaves pushes and pops so that
// the queue empties, compacts its live items to the front and grows
// its backing array many times. Items must leave in the order they
// came, and every slot outside the live part must be cleared.
func TestFIFOOrderAcrossCompaction(t *testing.T) {
	var q FIFO[int]
	next, want := 1, 1
	compactions := 0
	for round := 0; round < 2000; round++ {
		for i := 0; i < round%7+1; i++ {
			head := q.head
			q.Push(next)
			next++
			if head > 0 && q.head == 0 {
				compactions++
			}
		}
		for i := 0; i < round%5+1 && q.Len() > 0; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("round %d: pop = %d, want %d", round, got, want)
			}
			want++
		}
		if n := next - want; q.Len() != n {
			t.Fatalf("round %d: len = %d, want %d", round, q.Len(), n)
		}
		all := q.items[:cap(q.items)]
		for i, it := range all {
			if live := i >= q.head && i < len(q.items); !live && it != 0 {
				t.Fatalf("round %d: slot %d outside the live part holds %d", round, i, it)
			}
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("drain: pop = %d, want %d", got, want)
		}
		want++
	}
	if compactions == 0 {
		t.Fatal("the queue never compacted; the test does not reach the move")
	}
}
