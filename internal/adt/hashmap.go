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
	"sync/atomic"

	"repro/internal/core"
)

// HashMap is a linearizable hash map with striped internal locking.
// The zero value is an empty map.
type HashMap struct {
	striped[core.Value]
	size atomic.Int64
}

// NewHashMap creates an empty map.
func NewHashMap() *HashMap { return &HashMap{} }

// Get returns the value bound to k, or nil when absent.
func (h *HashMap) Get(k core.Value) core.Value {
	k, hash := hashKey(k)
	s := h.lock(hash)
	var v core.Value
	if i := s.find(k, hash); i >= 0 {
		v = s.slots[i].v
	}
	s.mu.Unlock()
	return v
}

// ContainsKey reports whether k is bound.
func (h *HashMap) ContainsKey(k core.Value) bool {
	k, hash := hashKey(k)
	s := h.lock(hash)
	ok := s.find(k, hash) >= 0
	s.mu.Unlock()
	return ok
}

// Put binds k to v and returns the previous value (nil when absent).
func (h *HashMap) Put(k, v core.Value) core.Value {
	k, hash := hashKey(k)
	s := h.lock(hash)
	if i := s.find(k, hash); i >= 0 {
		old := s.slots[i].v
		s.slots[i].v = v
		s.mu.Unlock()
		return old
	}
	h.insert(s, k, hash, v)
	s.mu.Unlock()
	h.size.Add(1)
	return nil
}

// PutIfAbsent binds k to v unless k is already bound; it returns the
// existing value, or nil when the put happened.
func (h *HashMap) PutIfAbsent(k, v core.Value) core.Value {
	k, hash := hashKey(k)
	s := h.lock(hash)
	if i := s.find(k, hash); i >= 0 {
		old := s.slots[i].v
		s.mu.Unlock()
		return old
	}
	h.insert(s, k, hash, v)
	s.mu.Unlock()
	h.size.Add(1)
	return nil
}

// Remove unbinds k and returns the removed value (nil when absent).
func (h *HashMap) Remove(k core.Value) core.Value {
	k, hash := hashKey(k)
	s := h.lock(hash)
	i := s.find(k, hash)
	if i < 0 {
		s.mu.Unlock()
		return nil
	}
	old := s.slots[i].v
	h.remove(s, hash, i)
	s.mu.Unlock()
	h.size.Add(-1)
	return old
}

// Size returns the number of bindings.
func (h *HashMap) Size() int { return int(h.size.Load()) }

// Clear removes every binding.
func (h *HashMap) Clear() { h.size.Add(int64(-h.clear())) }

// Values returns a snapshot of all bound values. It locks one shard at
// a time, so it is not atomic with respect to concurrent writers;
// transactions wanting an atomic scan must hold a mode conflicting with
// all writes (as the synthesized clients do).
func (h *HashMap) Values() []core.Value {
	out := make([]core.Value, 0, h.Size())
	h.each(func(_, v core.Value) bool {
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
	src.each(func(k, v core.Value) bool {
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
	k, hash := hashKey(k)
	s := h.lock(hash)
	if i := s.find(k, hash); i >= 0 {
		v := s.slots[i].v
		s.mu.Unlock()
		return v
	}
	v := compute()
	h.insert(s, k, hash, v)
	s.mu.Unlock()
	h.size.Add(1)
	return v
}

// RangeHeld calls f for every binding until f returns false, in table
// order (stripe by stripe, slot by slot — a function of the keys' hashes
// and insertion history, not randomised), for a caller that holds, for
// the whole walk, a lock conflicting with every Put,
// PutIfAbsent, ComputeIfAbsent, Remove, Clear and PutAll-destination on
// this map (a semantic mode for which ModeTable.ExcludesMutators is
// true, or an exclusive / reader-side lock every writer takes). Under
// that lock the walk is atomic, takes no shard lock and allocates
// nothing; without it, it is a data race. Concurrent Get, ContainsKey,
// Values and optimistic readers are unaffected. striped.eachHeld carries
// the happens-before argument; the heldwalk analyzer checks that a call
// sits behind an acquisition.
func (h *HashMap) RangeHeld(f func(k, v core.Value) bool) { h.eachHeld(f) }
