package adt

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// numShards is the stripe count of the keyed containers. striped keeps
// one occupancy bit per stripe in a uint64, so it cannot exceed 64.
const numShards = 64

// nilKey stands in for a nil key inside a table, where a nil k marks a
// free slot. It is unexported, so no caller's key can equal it.
type nilKey struct{}

// hashKey returns k as a table stores it and the one hash an operation
// takes of it: the runtime's φ mixer, whose low bits pick the stripe
// (so stripe ≡ φ bucket for a 64-value φ) and whose high bits pick the
// home slot inside it.
func hashKey(k core.Value) (core.Value, uint64) {
	h := core.HashOf(k)
	if k == nil {
		k = nilKey{}
	}
	return k, h
}

// userKey is the inverse of hashKey's substitution.
func userKey(k core.Value) core.Value {
	if k == (nilKey{}) {
		return nil
	}
	return k
}

// slot is one cell of a table, free while k is nil. It does not keep
// k's hash: a HashMap slot stays at two interfaces, and only growth and
// deletion — both off the read path — hash a stored key again.
type slot[V any] struct {
	k core.Value
	v V
}

// table is an open-addressed hash table: a power-of-two slice of slots,
// probed linearly from the home slot, at most three-quarters full, with
// no tombstones (deletion shifts the rest of the probe chain back). It
// is allocated on first insert. It is not safe for concurrent use: a
// stripe's mutex guards it.
type table[V any] struct {
	slots []slot[V]
	n     int
}

// home is the first slot probed for hash h in a table of size slots
// (a power of two ≥ 2): the top log2(size) bits of h.
func home(h uint64, size int) int {
	return int(h >> bits.LeadingZeros64(uint64(size-1)))
}

// find returns the index of k's slot, or -1 when k is absent.
func (t *table[V]) find(k core.Value, h uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := home(h, len(t.slots)); ; i = (i + 1) & mask {
		switch t.slots[i].k {
		case nil:
			return -1
		case k:
			return i
		}
	}
}

// place stores an absent key in the first free slot of its probe chain
// and returns that slot's index.
func place[V any](slots []slot[V], k core.Value, h uint64, v V) int {
	mask := len(slots) - 1
	i := home(h, len(slots))
	for slots[i].k != nil {
		i = (i + 1) & mask
	}
	slots[i] = slot[V]{k, v}
	return i
}

// insert binds the absent key k and returns its slot's index, doubling
// the table first when the binding would take it past three-quarters.
func (t *table[V]) insert(k core.Value, h uint64, v V) int {
	if (t.n+1)*4 > len(t.slots)*3 {
		grown := make([]slot[V], max(4, 2*len(t.slots)))
		for _, e := range t.slots {
			if e.k != nil {
				place(grown, e.k, core.HashOf(userKey(e.k)), e.v)
			}
		}
		t.slots = grown
	}
	t.n++
	return place(t.slots, k, h, v)
}

// remove frees slot hole and closes the gap: each later entry of the
// probe chain moves back into the hole unless that would put it before
// its own home slot.
func (t *table[V]) remove(hole int) {
	mask := len(t.slots) - 1
	for i := (hole + 1) & mask; t.slots[i].k != nil; i = (i + 1) & mask {
		from := home(core.HashOf(userKey(t.slots[i].k)), len(t.slots))
		if (i-from)&mask >= (i-hole)&mask {
			t.slots[hole] = t.slots[i]
			hole = i
		}
	}
	t.slots[hole] = slot[V]{}
	t.n--
}

// stripe is one lock's worth of a striped container.
type stripe[V any] struct {
	mu sync.Mutex
	table[V]
}

// striped is the storage of the keyed containers: numShards tables,
// each behind its own mutex, a key living in the stripe its hash's low
// bits name. Every operation on one key is linearizable at its stripe's
// mutex.
type striped[V any] struct {
	stripes [numShards]stripe[V]

	// occupied has bit i set while stripe i holds a key. A bit is
	// flipped only under its stripe's mutex, on the empty↔non-empty
	// transition, so a clear bit read without the mutex is one observed
	// moment at which the stripe was empty. The whole-container walks
	// (each, clear) visit set bits only: a small container costs a lock
	// per occupied stripe, not per stripe.
	occupied atomic.Uint64
}

// lock returns the stripe of a key with hash h, locked.
func (t *striped[V]) lock(h uint64) *stripe[V] {
	s := &t.stripes[h%numShards]
	s.mu.Lock()
	return s
}

// setOccupied flips stripe i's occupancy bit. The caller holds the
// stripe's mutex; the loop only ever retries against other stripes'
// flips.
func (t *striped[V]) setOccupied(i uint64, on bool) {
	for {
		old := t.occupied.Load()
		flipped := old &^ (1 << i)
		if on {
			flipped = old | 1<<i
		}
		if t.occupied.CompareAndSwap(old, flipped) {
			return
		}
	}
}

// insert binds the absent key k in its stripe s, which the caller has
// locked, and returns the slot's index.
func (t *striped[V]) insert(s *stripe[V], k core.Value, h uint64, v V) int {
	if s.n == 0 {
		t.setOccupied(h%numShards, true)
	}
	return s.insert(k, h, v)
}

// remove frees slot at of s, the locked stripe of hash h.
func (t *striped[V]) remove(s *stripe[V], h uint64, at int) {
	s.remove(at)
	if s.n == 0 {
		t.setOccupied(h%numShards, false)
	}
}

// clear drops every key and returns how many there were.
func (t *striped[V]) clear() int {
	dropped := 0
	for occ := t.occupied.Load(); occ != 0; occ &= occ - 1 {
		i := uint64(bits.TrailingZeros64(occ))
		s := &t.stripes[i]
		s.mu.Lock()
		if s.n != 0 {
			dropped += s.n
			s.table = table[V]{}
			t.setOccupied(i, false)
		}
		s.mu.Unlock()
	}
	return dropped
}

// each calls f for every key, in stripe then table order, until f
// returns false. It locks one stripe at a time and calls f under that
// lock. Stripes whose occupancy bit is clear when the walk begins are
// skipped without locking: a key present from before the walk began
// until it ends keeps its stripe's bit set, so it is never missed.
func (t *striped[V]) each(f func(k core.Value, v V) bool) {
	for occ := t.occupied.Load(); occ != 0; occ &= occ - 1 {
		s := &t.stripes[bits.TrailingZeros64(occ)]
		s.mu.Lock()
		for i := range s.slots {
			if e := &s.slots[i]; e.k != nil && !f(userKey(e.k), e.v) {
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
	}
}

// eachHeld is each for a caller whose own lock already excludes every
// writer: the same stripe-then-table order, no stripe mutex, nothing
// allocated.
//
// Contract: for the whole walk the caller holds a lock that conflicts
// with every operation that writes a table or the occupancy word of this
// instance — the containers' Put/PutIfAbsent/ComputeIfAbsent, Remove,
// Clear, and PutAll with this instance as the destination. A semantic
// mode qualifies when ModeTable.ExcludesMutators says so; so does an
// exclusive or reader-vs-writer lock every writer takes.
//
// Why that suffices, with no line of this package synchronising the
// walk. (1) Whoever else runs during the walk only reads what the walk
// reads: Get, ContainsKey, each, and the optimistic observers built on
// them, write nothing but a stripe's mutex word, which the walk never
// touches. (2) Every write the walk can see is ordered before it, and
// the walk before every later write, by the caller's lock: a mutator
// wrote the table before it released (for a semantic lock, the counter
// decrement of Semantic.Release), that release happens-before the
// walker's acquisition (the scan load that found the counter clear), and
// the walker's own release happens-before the scan of any mutator that
// gets in afterwards. Both edges are atomics of the lock, not of the
// table, so the race detector checks the contract wherever a test
// exercises it.
func (t *striped[V]) eachHeld(f func(k core.Value, v V) bool) {
	for occ := t.occupied.Load(); occ != 0; occ &= occ - 1 {
		s := &t.stripes[bits.TrailingZeros64(occ)]
		for i := range s.slots {
			if e := &s.slots[i]; e.k != nil && !f(userKey(e.k), e.v) {
				return
			}
		}
	}
}
