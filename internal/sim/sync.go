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
	q.WaitThen(p, resumed)
	p.Await()
}

// WaitThen is Wait in continuation form (see Proc.ParkThen): k runs
// once a waker releases p.
//
//simvet:hot
func (q *Waitq) WaitThen(p *Proc, k func()) {
	//simvet:allow SV006 grows to the queue's high-water mark once
	q.procs = append(q.procs, p)
	p.ParkThen(k)
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
	start := p.Now()
	if l.AcquireThen(p, resumed) {
		return 0
	}
	p.Await()
	return l.Handed(p, start)
}

// AcquireThen is Acquire in continuation form. It reports true when p
// took the free lock at once. Otherwise p joins the FIFO and parks
// (see Proc.ParkThen), and k runs once Release has handed p the lock;
// k must begin with Handed.
//
//simvet:hot
func (l *Lock) AcquireThen(p *Proc, k func()) bool {
	if l.enter(p) {
		return true
	}
	p.ParkThen(k)
	return false
}

// enter takes the lock for p if it is free, or queues p behind the
// current owner.
//
//simvet:hot
func (l *Lock) enter(p *Proc) bool {
	l.Acquisitions++
	if l.owner == nil {
		l.owner = p
		l.acquiredAt = p.Now()
		return true
	}
	l.Contended++
	//simvet:allow SV006 grows to the lock's high-water mark once
	l.waiters = append(l.waiters, p)
	return false
}

// Handed ends a wait for the lock that began at start: it checks that
// Release handed ownership to p, books the wait, and returns it.
//
//simvet:hot
func (l *Lock) Handed(p *Proc, start Time) Time {
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

// Sem is a FIFO counting semaphore.
type Sem struct {
	name    string
	tokens  int
	waiters []*Proc
}

// NewSem creates a semaphore with n initial tokens.
func NewSem(name string, n int) *Sem { return &Sem{name: name, tokens: n} }

// Acquire takes one token, blocking p if none are available, and
// returns the time spent waiting.
func (m *Sem) Acquire(p *Proc) Time {
	start := p.Now()
	if !m.AcquireThen(p, resumed) {
		p.Await() // Release hands the token over directly
	}
	return p.Now() - start
}

// AcquireThen is Acquire in continuation form. It reports true when p
// took a free token at once. Otherwise p joins the FIFO and parks (see
// Proc.ParkThen), and k runs once Release has handed p a token.
//
//simvet:hot
func (m *Sem) AcquireThen(p *Proc, k func()) bool {
	if m.enter(p) {
		return true
	}
	p.ParkThen(k)
	return false
}

// enter takes a free token for p, or queues p.
//
//simvet:hot
func (m *Sem) enter(p *Proc) bool {
	if m.tokens > 0 {
		m.tokens--
		return true
	}
	//simvet:allow SV006 grows to the semaphore's high-water mark once
	m.waiters = append(m.waiters, p)
	return false
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
