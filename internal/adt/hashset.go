package adt

import (
	"sync/atomic"

	"repro/internal/core"
)

// HashSet is a linearizable hash set with striped internal locking —
// the Set ADT of Fig 3(a). The zero value is an empty set.
type HashSet struct {
	striped[struct{}]
	size atomic.Int64
}

// NewHashSet creates an empty set.
func NewHashSet() *HashSet { return &HashSet{} }

// Add inserts v.
func (h *HashSet) Add(v core.Value) {
	v, hash := hashKey(v)
	s := h.lock(hash)
	had := s.find(v, hash) >= 0
	if !had {
		h.insert(s, v, hash, struct{}{})
	}
	s.mu.Unlock()
	if !had {
		h.size.Add(1)
	}
}

// Remove deletes v.
func (h *HashSet) Remove(v core.Value) {
	v, hash := hashKey(v)
	s := h.lock(hash)
	i := s.find(v, hash)
	if i >= 0 {
		h.remove(s, hash, i)
	}
	s.mu.Unlock()
	if i >= 0 {
		h.size.Add(-1)
	}
}

// Contains reports membership of v.
func (h *HashSet) Contains(v core.Value) bool {
	v, hash := hashKey(v)
	s := h.lock(hash)
	ok := s.find(v, hash) >= 0
	s.mu.Unlock()
	return ok
}

// Size returns the element count.
func (h *HashSet) Size() int { return int(h.size.Load()) }

// Clear removes every element.
func (h *HashSet) Clear() { h.size.Add(int64(-h.clear())) }
