// Package adt provides the linearizable abstract data types the paper's
// clients compose (§2.1): hash map, hash set, queue, multimap, deque,
// counter, priority queue and list. Each type is safe for concurrent use
// and linearizable with respect to its sequential specification — the
// property the semantic-locking methodology assumes of every shared ADT.
// The matching commutativity specifications live in internal/adtspecs.
//
// The implementations use internal fine-grained synchronization (striped
// shards for the keyed containers), exercising the paper's modularity
// claim: each ADT may use its own concurrency control internally while
// the synthesized semantic locks coordinate whole transactions.
package adt

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// numShards is the stripe count of the keyed containers. HashMap keeps
// one occupancy bit per stripe in a uint64, so it cannot exceed 64.
const numShards = 64

// shardIndex buckets a key into a stripe using the same 64-bit mixer as
// the runtime's φ.
func shardIndex(k core.Value) int {
	return int(core.HashOf(k) % numShards)
}

type mapShard struct {
	mu sync.Mutex
	m  map[core.Value]core.Value
}

// HashMap is a linearizable hash map with striped internal locking.
// The zero value is not usable; call NewHashMap.
type HashMap struct {
	shards [numShards]mapShard
	size   atomic.Int64

	// occupied has bit i set while stripe i holds a binding. A bit is
	// flipped only under its stripe's mutex, on the empty↔non-empty
	// transition, so a clear bit read without the mutex is one observed
	// moment at which the stripe was empty. The whole-map walks (Range
	// and what is built on it, Clear) visit set bits only: a small map
	// costs a lock per occupied stripe, not per stripe.
	occupied atomic.Uint64
}

// NewHashMap creates an empty map.
func NewHashMap() *HashMap {
	h := &HashMap{}
	for i := range h.shards {
		h.shards[i].m = make(map[core.Value]core.Value)
	}
	return h
}

// Get returns the value bound to k, or nil when absent.
func (h *HashMap) Get(k core.Value) core.Value {
	s := &h.shards[shardIndex(k)]
	s.mu.Lock()
	v := s.m[k]
	s.mu.Unlock()
	return v
}

// ContainsKey reports whether k is bound.
func (h *HashMap) ContainsKey(k core.Value) bool {
	s := &h.shards[shardIndex(k)]
	s.mu.Lock()
	_, ok := s.m[k]
	s.mu.Unlock()
	return ok
}

// setOccupied flips stripe i's occupancy bit. The caller holds the
// stripe's mutex; the loop only ever retries against other stripes'
// flips.
func (h *HashMap) setOccupied(i int, on bool) {
	for {
		old := h.occupied.Load()
		flipped := old &^ (1 << i)
		if on {
			flipped = old | 1<<i
		}
		if h.occupied.CompareAndSwap(old, flipped) {
			return
		}
	}
}

// insert binds an absent k in stripe i, whose mutex the caller holds.
func (h *HashMap) insert(i int, k, v core.Value) {
	m := h.shards[i].m
	m[k] = v
	if len(m) == 1 {
		h.setOccupied(i, true)
	}
}

// Put binds k to v and returns the previous value (nil when absent).
func (h *HashMap) Put(k, v core.Value) core.Value {
	i := shardIndex(k)
	s := &h.shards[i]
	s.mu.Lock()
	old, had := s.m[k]
	if had {
		s.m[k] = v
	} else {
		h.insert(i, k, v)
	}
	s.mu.Unlock()
	if !had {
		h.size.Add(1)
		return nil
	}
	return old
}

// PutIfAbsent binds k to v unless k is already bound; it returns the
// existing value, or nil when the put happened.
func (h *HashMap) PutIfAbsent(k, v core.Value) core.Value {
	i := shardIndex(k)
	s := &h.shards[i]
	s.mu.Lock()
	if old, had := s.m[k]; had {
		s.mu.Unlock()
		return old
	}
	h.insert(i, k, v)
	s.mu.Unlock()
	h.size.Add(1)
	return nil
}

// Remove unbinds k and returns the removed value (nil when absent).
func (h *HashMap) Remove(k core.Value) core.Value {
	i := shardIndex(k)
	s := &h.shards[i]
	s.mu.Lock()
	old, had := s.m[k]
	if had {
		delete(s.m, k)
		if len(s.m) == 0 {
			h.setOccupied(i, false)
		}
	}
	s.mu.Unlock()
	if had {
		h.size.Add(-1)
		return old
	}
	return nil
}

// Size returns the number of bindings.
func (h *HashMap) Size() int { return int(h.size.Load()) }

// Clear removes every binding.
func (h *HashMap) Clear() {
	for occ := h.occupied.Load(); occ != 0; occ &= occ - 1 {
		i := bits.TrailingZeros64(occ)
		s := &h.shards[i]
		s.mu.Lock()
		if len(s.m) != 0 {
			h.size.Add(int64(-len(s.m)))
			s.m = make(map[core.Value]core.Value)
			h.setOccupied(i, false)
		}
		s.mu.Unlock()
	}
}

// Values returns a snapshot of all bound values (shard at a time; see
// Range for the atomicity caveat).
func (h *HashMap) Values() []core.Value {
	out := make([]core.Value, 0, h.Size())
	h.Range(func(_, v core.Value) bool {
		out = append(out, v)
		return true
	})
	return out
}

// PutAll copies every binding of src into h (the Tomcat cache's
// longterm.putAll(eden)). It locks one source shard at a time; callers
// needing the copy to be atomic must hold a conflicting mode on both
// maps, as the synthesized cache transactions do.
func (h *HashMap) PutAll(src *HashMap) {
	src.Range(func(k, v core.Value) bool {
		h.Put(k, v)
		return true
	})
}

// ComputeIfAbsent returns the value bound to k, computing and binding it
// under the key's shard lock when absent — the hand-crafted CHM-V8 style
// primitive the ComputeIfAbsent benchmark compares against (§6.1). The
// compute function runs while the shard is locked, so it must not touch
// this map.
func (h *HashMap) ComputeIfAbsent(k core.Value, compute func() core.Value) core.Value {
	i := shardIndex(k)
	s := &h.shards[i]
	s.mu.Lock()
	if v, ok := s.m[k]; ok {
		s.mu.Unlock()
		return v
	}
	v := compute()
	h.insert(i, k, v)
	s.mu.Unlock()
	h.size.Add(1)
	return v
}

// Range calls f for every binding until f returns false. It locks one
// shard at a time, so it is not atomic with respect to concurrent
// writers; transactions wanting an atomic scan must hold a mode
// conflicting with all writes (as the synthesized clients do). Stripes
// whose occupancy bit is clear when the range begins are skipped
// without locking: a binding present from before the range began until
// it ends keeps its stripe's bit set, so it is never missed.
func (h *HashMap) Range(f func(k, v core.Value) bool) {
	for occ := h.occupied.Load(); occ != 0; occ &= occ - 1 {
		s := &h.shards[bits.TrailingZeros64(occ)]
		s.mu.Lock()
		for k, v := range s.m {
			if !f(k, v) {
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
	}
}
