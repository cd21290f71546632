package adt

import (
	"sync/atomic"

	"repro/internal/core"
)

// Multimap is a linearizable key → set-of-values container (the Guava
// SetMultimap shape the Graph benchmark of §6.1 builds on), with striped
// internal locking: a key's value set is a table of its own, guarded by
// the key's stripe. The zero value is an empty multimap.
type Multimap struct {
	striped[table[struct{}]]
	size atomic.Int64
}

// NewMultimap creates an empty multimap.
func NewMultimap() *Multimap { return &Multimap{} }

// Put associates v with k; it reports whether the entry was new.
func (h *Multimap) Put(k, v core.Value) bool {
	k, hash := hashKey(k)
	v, vhash := hashKey(v)
	s := h.lock(hash)
	i := s.find(k, hash)
	if i < 0 {
		i = h.insert(s, k, hash, table[struct{}]{})
	}
	vs := &s.slots[i].v
	isNew := vs.find(v, vhash) < 0
	if isNew {
		vs.insert(v, vhash, struct{}{})
	}
	s.mu.Unlock()
	if isNew {
		h.size.Add(1)
	}
	return isNew
}

// values returns a snapshot of a value set's members.
func values(vs *table[struct{}]) []core.Value {
	out := make([]core.Value, 0, vs.n)
	for _, e := range vs.slots {
		if e.k != nil {
			out = append(out, userKey(e.k))
		}
	}
	return out
}

// Get returns a snapshot of the values associated with k.
func (h *Multimap) Get(k core.Value) []core.Value {
	k, hash := hashKey(k)
	s := h.lock(hash)
	out := []core.Value{}
	if i := s.find(k, hash); i >= 0 {
		out = values(&s.slots[i].v)
	}
	s.mu.Unlock()
	return out
}

// ContainsEntry reports whether (k, v) is present.
func (h *Multimap) ContainsEntry(k, v core.Value) bool {
	k, hash := hashKey(k)
	v, vhash := hashKey(v)
	s := h.lock(hash)
	i := s.find(k, hash)
	ok := i >= 0 && s.slots[i].v.find(v, vhash) >= 0
	s.mu.Unlock()
	return ok
}

// Remove deletes the entry (k, v); it reports whether it was present.
func (h *Multimap) Remove(k, v core.Value) bool {
	k, hash := hashKey(k)
	v, vhash := hashKey(v)
	s := h.lock(hash)
	had := false
	if i := s.find(k, hash); i >= 0 {
		vs := &s.slots[i].v
		if j := vs.find(v, vhash); j >= 0 {
			had = true
			vs.remove(j)
			if vs.n == 0 {
				h.remove(s, hash, i)
			}
		}
	}
	s.mu.Unlock()
	if had {
		h.size.Add(-1)
	}
	return had
}

// RemoveAll deletes every entry of k and returns the removed values.
func (h *Multimap) RemoveAll(k core.Value) []core.Value {
	k, hash := hashKey(k)
	s := h.lock(hash)
	out := []core.Value{}
	if i := s.find(k, hash); i >= 0 {
		out = values(&s.slots[i].v)
		h.remove(s, hash, i)
	}
	s.mu.Unlock()
	h.size.Add(int64(-len(out)))
	return out
}

// Size returns the number of (key, value) entries.
func (h *Multimap) Size() int { return int(h.size.Load()) }
