package sim

// FIFO is a first-in first-out queue for the simulator's work queues
// (the run-time layer's work and release queues, the releaser's
// request queue): the live items are items[head:]. A pop only advances
// head and clears the popped slot. A push that would grow the backing
// array first moves the live items to the front instead, when popped
// slots are at least an eighth of them: the array grows only when it
// is nearly all live, and each move of n items frees n/8 or more
// slots, so both operations are O(1) amortized. The zero value is an
// empty queue.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len returns the number of items the queue holds.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Pop removes and returns the oldest item. The queue must not be
// empty.
func (q *FIFO[T]) Pop() T {
	var zero T
	it := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return it
}

// Push appends an item.
func (q *FIFO[T]) Push(it T) {
	if q.head > 0 && len(q.items) == cap(q.items) && q.head >= q.Len()/8 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, it)
}
