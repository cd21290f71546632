// Package sim is a deterministic virtual-time concurrency simulator —
// the stand-in for the paper's 32-core Xeon (DESIGN.md substitution 3).
//
// The paper's figures measure how much parallelism each concurrency-
// control policy admits at a given thread count. That quantity is a
// property of the conflict structure (which transactions block which),
// not of the silicon, so it can be reproduced exactly on any host: the
// simulator executes each virtual thread's transaction steps under a
// discrete-event scheduler with a virtual clock; computation advances a
// thread's local time, and lock acquisitions block exactly per the
// policy's compatibility matrix. Throughput is completed transactions
// divided by the virtual makespan. Each virtual thread runs on its own
// virtual core, matching the paper's sweeps (threads ≤ 32 = cores).
//
// Everything is deterministic: a fixed scheduler tie-break (time, then
// thread id) and seeded workload generators make every run repeatable.
package sim

import (
	"container/heap"
	"fmt"
)

// StepKind discriminates transaction steps.
type StepKind uint8

const (
	// Work advances the thread's clock by Cost ticks (computation, ADT
	// operation execution, I/O, lock-bookkeeping overhead).
	Work StepKind = iota
	// Acquire blocks until Mode is admissible on Res, then holds it.
	Acquire
	// Release drops one hold of Mode on Res.
	Release
)

// Step is one step of a transaction.
type Step struct {
	Kind StepKind
	Cost int64 // Work only
	Res  *Res  // Acquire/Release
	Mode int   // Acquire/Release
}

// W returns a Work step.
func W(cost int64) Step { return Step{Kind: Work, Cost: cost} }

// Acq returns an Acquire step.
func Acq(r *Res, mode int) Step { return Step{Kind: Acquire, Res: r, Mode: mode} }

// Rel returns a Release step.
func Rel(r *Res, mode int) Step { return Step{Kind: Release, Res: r, Mode: mode} }

// Res is a simulated lock resource with a mode-compatibility matrix —
// the abstraction covering plain mutexes (one self-incompatible mode),
// readers/writer locks, striped locks (one mode per stripe) and
// semantic-lock mechanisms (F_c).
type Res struct {
	name    string
	fc      func(a, b int) bool
	counts  []int
	waiters []*thread // FIFO
}

// NewRes creates a resource with n modes and compatibility function fc
// (fc(a,b) reports whether holders of a and b may coexist).
func NewRes(name string, n int, fc func(a, b int) bool) *Res {
	return &Res{name: name, fc: fc, counts: make([]int, n)}
}

// NewMutex creates an exclusive single-mode resource.
func NewMutex(name string) *Res {
	return NewRes(name, 1, func(_, _ int) bool { return false })
}

// NewStriped creates an n-stripe resource: mode i is stripe i; distinct
// stripes are compatible, same stripes are not. (A transaction touching
// two stripes acquires both modes.)
func NewStriped(name string, n int) *Res {
	return NewRes(name, n, func(a, b int) bool { return a != b })
}

// NewRW creates a readers/writer resource: mode 0 = read, 1 = write.
func NewRW(name string) *Res {
	return NewRes(name, 2, func(a, b int) bool { return a == 0 && b == 0 })
}

// NewStripedRW creates 2n modes: mode 2i = read stripe i, 2i+1 = write
// stripe i. Distinct stripes are compatible; same-stripe pairs are
// compatible only when both are reads.
func NewStripedRW(name string, n int) *Res {
	return NewRes(name, 2*n, func(a, b int) bool {
		if a/2 != b/2 {
			return true
		}
		return a%2 == 0 && b%2 == 0
	})
}

// admissible reports whether a new holder of mode may enter now.
func (r *Res) admissible(mode int) bool {
	for m, c := range r.counts {
		if c > 0 && !r.fc(mode, m) {
			return false
		}
	}
	return true
}

// thread is one virtual thread/core.
type thread struct {
	id      int
	gen     func() []Step // next transaction's steps; nil return = done
	steps   []Step
	ip      int
	done    int64
	blocked bool
}

// Sim runs a set of virtual threads to completion.
type Sim struct {
	now     int64
	seq     int64
	pq      eventHeap
	threads []*thread
	// LockOverhead is charged (as virtual ticks) on every Acquire, on
	// top of explicit Work steps; it models the constant cost of the
	// lock operation itself and can differ per policy via the workload.
	LockOverhead int64
}

// New creates an empty simulation.
func New() *Sim { return &Sim{} }

// AddThread registers a virtual thread; gen returns the next
// transaction's steps, or nil when the thread is finished.
func (s *Sim) AddThread(gen func() []Step) {
	t := &thread{id: len(s.threads), gen: gen}
	s.threads = append(s.threads, t)
}

// Run executes all threads to completion and returns the virtual
// makespan in ticks and the total number of completed transactions.
func (s *Sim) Run() (makespan int64, txns int64) {
	s.now = 0
	for _, t := range s.threads {
		s.schedule(t, 0)
	}
	for s.pq.Len() > 0 {
		ev := heap.Pop(&s.pq).(event)
		if ev.at > s.now {
			s.now = ev.at
		}
		s.step(ev.th)
	}
	var total int64
	for _, t := range s.threads {
		total += t.done
		if t.blocked {
			panic(fmt.Sprintf("sim: thread %d still blocked at end (deadlock?)", t.id))
		}
	}
	return s.now, total
}

// step advances one thread until it blocks, sleeps (Work), or finishes.
func (s *Sim) step(t *thread) {
	for {
		if t.ip >= len(t.steps) {
			if t.steps != nil {
				t.done++
			}
			t.steps = t.gen()
			t.ip = 0
			if t.steps == nil {
				return // thread finished
			}
			if len(t.steps) == 0 {
				t.done++
				continue
			}
		}
		st := t.steps[t.ip]
		switch st.Kind {
		case Work:
			t.ip++
			if st.Cost > 0 {
				s.schedule(t, st.Cost)
				return
			}
		case Acquire:
			if !st.Res.admissible(st.Mode) {
				t.blocked = true
				st.Res.waiters = append(st.Res.waiters, t)
				return
			}
			st.Res.counts[st.Mode]++
			t.ip++
			if s.LockOverhead > 0 {
				s.schedule(t, s.LockOverhead)
				return
			}
		case Release:
			st.Res.counts[st.Mode]--
			if st.Res.counts[st.Mode] < 0 {
				panic("sim: release without acquire on " + st.Res.name)
			}
			t.ip++
			s.wake(st.Res)
		}
	}
}

// wake admits eligible waiters in FIFO order.
func (s *Sim) wake(r *Res) {
	if len(r.waiters) == 0 {
		return
	}
	remaining := r.waiters[:0]
	for _, t := range r.waiters {
		st := t.steps[t.ip]
		if st.Res == r && r.admissible(st.Mode) {
			r.counts[st.Mode]++
			t.ip++
			t.blocked = false
			s.schedule(t, s.LockOverhead)
		} else {
			remaining = append(remaining, t)
		}
	}
	r.waiters = remaining
}

func (s *Sim) schedule(t *thread, delay int64) {
	s.seq++
	heap.Push(&s.pq, event{at: s.now + delay, seq: s.seq, th: t})
}

// event is a scheduler wake-up.
type event struct {
	at  int64
	seq int64
	th  *thread
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
