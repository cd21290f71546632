// Fixture for occpure: //semlock:readonly sections must not mutate
// shared ADT state or package-level variables.
package tdata

import (
	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/semadt"
)

var hitCount int

//semlock:atomic
//semlock:readonly
func cleanLookup(m *semadt.Map, s *semadt.Set, k, j int) {
	v := m.Get(k)
	_ = v
	n := m.Size() // observer: fine
	has := s.Contains(j)
	local := n // local state: fine
	local++
	_, _ = has, local
}

//semlock:atomic
//semlock:readonly
func leakyCachingLookup(m *semadt.Map, k int) {
	v := m.Get(k)
	m.Put(k, v) // want "mutates Map state"
}

//semlock:atomic
//semlock:readonly
func membershipProbe(s *semadt.Set, q *semadt.Queue, j int) {
	if !s.Contains(j) {
		s.Add(j) // want "mutates Set state"
	}
	_ = q.Dequeue() // want "mutates Queue state"
}

//semlock:atomic
//semlock:readonly
func countedLookup(m *semadt.Map, k int) {
	_ = m.ContainsKey(k)
	hitCount++ // want "store to package-level hitCount"
}

// A marker line is the marker alone or the marker followed by
// whitespace: a trailing reason or note leaves it the marker.
//
//semlock:atomic // compiled by semlockc
//semlock:readonly -- a probe: it only reads
func annotatedProbe(m *semadt.Map, k int) {
	m.Put(k, k) // want "mutates Map state"
	hitCount++  // want "store to package-level hitCount"
}

//semlock:readonly
func notASection(m *semadt.Map, k int) { // want "without //semlock:atomic"
	_ = m.Get(k)
}

//semlock:atomic
func unmarkedMutator(m *semadt.Map, k int) {
	m.Put(k, k) // unmarked sections may mutate freely
}

//semlock:atomic
//semlock:readonly
func warmingLookup(m *semadt.Map, k int) {
	if m.Get(k) == nil {
		//semlockvet:ignore occpure -- cache warm-up runs before the server accepts traffic
		m.Put(k, k)
	}
}

//semlock:atomic
//semlock:readonly
func deferredMutation(m *semadt.Map, k int) {
	defer m.Remove(k) // want "mutates Map state"
	_ = m.Get(k)
}

//semlock:atomic
//semlock:readonly
func spawnedMutation(s *semadt.Set, j int) {
	go s.Clear() // want "mutates Set state"
	_ = s.Contains(j)
}

//semlock:atomic
//semlock:readonly
func capturedMutator(m *semadt.Map, k int) {
	f := m.Put // want "captures a mutator"
	g := m.Get // observer method value: fine
	defer f(k, k)
	_ = g(k)
}

//semlock:atomic
//semlock:readonly
func methodExprMutator(m *semadt.Map, k int) {
	h := (*semadt.Map).Remove // want "captures a mutator"
	h(m, k)
}

// A core.Snapshot's Observe…Validate span is a read-only section by
// construction, marked or not: the rule holds between the two calls and
// nowhere else in the function.
func bareSpan(m *semadt.Map, h *adt.HashMap, k int) core.Value {
	hitCount++ // before the span: an ordinary store
	var sn core.Snapshot
	if sn.Observe(m.Sem(), core.ModeID(0)) {
		v := m.Get(k)
		_ = h.Get(k)     // an adt container's observer: fine
		h.RangeHeld(nil) // not a spec method: heldwalk's to judge, not occpure's
		m.Put(k, v)      // want "mutates Map state"
		h.Remove(k)      // want "mutates Map state"
		hitCount++       // want "store to package-level hitCount"
		if sn.Validate() {
			return v
		}
	}
	m.Put(k, k) // after the span closed: the pessimistic path may mutate
	return nil
}

// An Observe that no Validate answers guards nothing: the reads behind
// it are used as if they were one snapshot and never checked.
func neverValidated(m *semadt.Map, k int) core.Value {
	var sn core.Snapshot
	if sn.Observe(m.Sem(), core.ModeID(0)) { // want "never followed by a use of sn.Validate's answer"
		return m.Get(k)
	}
	return nil
}

// Calling Validate and throwing its answer away is the same thing.
func droppedValidate(m *semadt.Map, k int) core.Value {
	var sn core.Snapshot
	if !sn.Observe(m.Sem(), core.ModeID(0)) { // want "never followed by a use of sn.Validate's answer"
		return nil
	}
	v := m.Get(k)
	sn.Validate()
	return v
}
