// Package cc provides the baseline concurrency-control mechanisms the
// paper's evaluation compares against (§6): a single global lock
// (Global), standard two-phase locking with one exclusive lock per ADT
// instance acquired in a fixed order (2PL), and lock striping (the
// building block of the hand-crafted Manual variants).
package cc

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// GlobalLock serializes whole atomic sections — the Global baseline.
type GlobalLock struct {
	mu sync.Mutex
}

// Enter begins the section.
func (g *GlobalLock) Enter() { g.mu.Lock() }

// Exit ends the section.
func (g *GlobalLock) Exit() { g.mu.Unlock() }

// instanceLockIDs provides the unique ids used for ordered acquisition.
var instanceLockIDs atomic.Uint64

// InstanceLock is the per-ADT-instance exclusive lock of the 2PL
// baseline. The paper derives this variant from the output of §3:
// instead of locking operations of instance A, a plain lock protecting
// A is acquired, in the same OS2PL order.
type InstanceLock struct {
	mu   sync.Mutex
	id   uint64
	rank int
}

// NewInstanceLock creates a lock with the given class rank.
func NewInstanceLock(rank int) *InstanceLock {
	return &InstanceLock{id: instanceLockIDs.Add(1), rank: rank}
}

// TwoPL is a transaction of the 2PL baseline: exclusive instance locks
// acquired in (rank, id) order and released together.
type TwoPL struct {
	held []*InstanceLock
}

// Lock acquires l unless already held. Callers must respect (rank, id)
// order across Lock calls; LockOrdered handles same-rank groups.
func (t *TwoPL) Lock(l *InstanceLock) {
	if l == nil || t.holds(l) {
		return
	}
	l.mu.Lock()
	t.held = append(t.held, l)
}

// LockOrdered acquires a group of same-rank locks in id order,
// skipping nils and duplicates.
func (t *TwoPL) LockOrdered(ls ...*InstanceLock) {
	sorted := make([]*InstanceLock, 0, len(ls))
	for _, l := range ls {
		if l != nil {
			sorted = append(sorted, l)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
	for _, l := range sorted {
		t.Lock(l)
	}
}

func (t *TwoPL) holds(l *InstanceLock) bool {
	for _, h := range t.held {
		if h == l {
			return true
		}
	}
	return false
}

// UnlockAll releases every held lock.
func (t *TwoPL) UnlockAll() {
	for i := len(t.held) - 1; i >= 0; i-- {
		t.held[i].mu.Unlock()
	}
	t.held = t.held[:0]
}

// Striped is a fixed array of locks indexed by key hash — the classic
// lock-striping technique used by the Manual baselines (§6.1 uses 64
// stripes, as in Hawkins et al.).
type Striped struct {
	locks []sync.RWMutex
}

// NewStriped creates n stripes.
func NewStriped(n int) *Striped {
	return &Striped{locks: make([]sync.RWMutex, n)}
}

// N returns the stripe count.
func (s *Striped) N() int { return len(s.locks) }

// indexOf buckets a key.
func (s *Striped) indexOf(k core.Value) int {
	return int(core.HashOf(k) % uint64(len(s.locks)))
}

// Lock exclusively locks the stripe of k.
func (s *Striped) Lock(k core.Value) { s.locks[s.indexOf(k)].Lock() }

// Unlock releases the stripe of k.
func (s *Striped) Unlock(k core.Value) { s.locks[s.indexOf(k)].Unlock() }

// RLock read-locks the stripe of k.
func (s *Striped) RLock(k core.Value) { s.locks[s.indexOf(k)].RLock() }

// RUnlock releases a read lock on the stripe of k.
func (s *Striped) RUnlock(k core.Value) { s.locks[s.indexOf(k)].RUnlock() }

// LockAll exclusively acquires every stripe in index order (the
// stop-the-world path of hand-crafted variants, e.g. the cache flush).
func (s *Striped) LockAll() {
	for i := range s.locks {
		s.locks[i].Lock()
	}
}

// UnlockAll releases every stripe.
func (s *Striped) UnlockAll() {
	for i := range s.locks {
		s.locks[i].Unlock()
	}
}
