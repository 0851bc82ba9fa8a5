package sim

// Waitq is a FIFO queue of parked processes. It is the building block
// for condition-style waiting: a process appends itself and parks;
// wakers pop and wake.
type Waitq struct {
	name  string
	procs []*Proc
}

// NewWaitq creates a named wait queue. The name appears in diagnostics
// only.
func NewWaitq(name string) *Waitq { return &Waitq{name: name} }

// Wait parks p on the queue until a waker releases it. Wake order is
// FIFO.
func (q *Waitq) Wait(p *Proc) {
	q.procs = append(q.procs, p)
	p.Park()
}

// WakeOne wakes the longest-waiting process, if any, and reports
// whether one was woken.
func (q *Waitq) WakeOne() bool {
	if len(q.procs) == 0 {
		return false
	}
	p := q.procs[0]
	copy(q.procs, q.procs[1:])
	q.procs = q.procs[:len(q.procs)-1]
	p.Wake()
	return true
}

// WakeAll wakes every waiting process in FIFO order.
func (q *Waitq) WakeAll() {
	for _, p := range q.procs {
		p.Wake()
	}
	q.procs = q.procs[:0]
}

// Len returns the number of waiting processes.
func (q *Waitq) Len() int { return len(q.procs) }

// Lock is a FIFO mutex for simulated processes. It records aggregate
// wait time and hold time so experiments can attribute lock
// contention (the paper's paging-daemon vs fault-handler interference
// is measured through these counters).
type Lock struct {
	name    string
	owner   *Proc
	waiters []*Proc

	acquiredAt Time

	// Stats, cumulative over the run.
	Acquisitions int64
	Contended    int64 // acquisitions that had to wait
	WaitTime     Time  // total time spent waiting
	HoldTime     Time  // total time held
}

// NewLock creates a named lock.
func NewLock(name string) *Lock { return &Lock{name: name} }

// Name returns the lock's diagnostic name.
func (l *Lock) Name() string { return l.name }

// Acquire blocks p until it owns the lock and returns the time spent
// waiting (zero when uncontended).
func (l *Lock) Acquire(p *Proc) Time {
	l.Acquisitions++
	if l.owner == nil {
		l.owner = p
		l.acquiredAt = p.Now()
		return 0
	}
	l.Contended++
	start := p.Now()
	l.waiters = append(l.waiters, p)
	p.Park()
	// Ownership was transferred to us by Release before the wake.
	if l.owner != p {
		panic("sim: lock ownership not transferred to woken waiter")
	}
	wait := p.Now() - start
	l.WaitTime += wait
	l.acquiredAt = p.Now()
	return wait
}

// TryAcquire acquires the lock if it is free, reporting success.
func (l *Lock) TryAcquire(p *Proc) bool {
	if l.owner != nil {
		return false
	}
	l.Acquisitions++
	l.owner = p
	l.acquiredAt = p.Now()
	return true
}

// Release transfers the lock to the longest-waiting process, or frees
// it. Only the owner may call Release.
func (l *Lock) Release(p *Proc) {
	if l.owner != p {
		panic("sim: release of lock " + l.name + " by non-owner " + p.Name())
	}
	l.HoldTime += p.Now() - l.acquiredAt
	if len(l.waiters) == 0 {
		l.owner = nil
		return
	}
	next := l.waiters[0]
	copy(l.waiters, l.waiters[1:])
	l.waiters = l.waiters[:len(l.waiters)-1]
	l.owner = next
	l.acquiredAt = p.Now() // provisional; fixed up when next resumes
	next.Wake()
}

// Sem is a FIFO counting semaphore with wait-time accounting.
type Sem struct {
	name    string
	tokens  int
	waiters []*Proc

	Acquisitions int64
	Contended    int64
	WaitTime     Time
}

// NewSem creates a semaphore with n initial tokens.
func NewSem(name string, n int) *Sem { return &Sem{name: name, tokens: n} }

// Acquire takes one token, blocking p if none are available, and
// returns the time spent waiting.
func (m *Sem) Acquire(p *Proc) Time {
	m.Acquisitions++
	if m.tokens > 0 {
		m.tokens--
		return 0
	}
	m.Contended++
	start := p.Now()
	m.waiters = append(m.waiters, p)
	p.Park()
	// The token was handed to us directly by Release.
	wait := p.Now() - start
	m.WaitTime += wait
	return wait
}

// Release returns one token, handing it directly to the
// longest-waiting process if any.
func (m *Sem) Release() {
	if len(m.waiters) > 0 {
		next := m.waiters[0]
		copy(m.waiters, m.waiters[1:])
		m.waiters = m.waiters[:len(m.waiters)-1]
		next.Wake()
		return
	}
	m.tokens++
}

// Available returns the number of free tokens.
func (m *Sem) Available() int { return m.tokens }

// Waiting returns the number of blocked acquirers.
func (m *Sem) Waiting() int { return len(m.waiters) }
