package core

// snapInline is how many observations a Snapshot holds without touching
// the heap: the widest read section in the apps (an 8-shard scan)
// observes 8 instances.
const snapInline = 8

// snapEntry is one optimistic observation: the instance and mode the
// section would have locked, plus the mechanism version sampled when
// the observation was made.
type snapEntry struct {
	sem  *Semantic
	ver  uint64
	mode ModeID
}

// Snapshot is the version vector of one optimistic read: an observer-
// only section calls Observe where its pessimistic form would Lock,
// performs its reads, and calls Validate; true means the reads are one
// consistent snapshot. The zero value is ready to use.
//
// A Snapshot acquires nothing, so it needs no transaction: there is no
// LOCAL_SET to release, no two-phase flag to honour and no epilogue to
// guarantee, and a panic between Observe and Validate unwinds as itself
// — nothing is held, nothing is pooled, nothing is left to report as a
// SectionPanic. Declare one as a local (`var sn core.Snapshot`); neither
// method lets its receiver escape, so the vector stays on the caller's
// stack, and only the 9th distinct instance allocates. Txn.TryOptimistic
// and Txn.Observe are the same protocol over a Snapshot embedded in the
// transaction, for callers that are inside a transaction for another
// reason.
//
// A Snapshot belongs to one goroutine. The section between Observe and
// Validate must not acquire any lock or mutate shared ADT state, and on
// a false Observe or Validate its results must be discarded and the
// section re-run under its pessimistic prologue.
type Snapshot struct {
	n    int // observations recorded: the first snapInline in e, the rest in more
	e    [snapInline]snapEntry
	more []snapEntry // overflow: more[:n-snapInline] is live
}

// find returns the observation of instance s, or nil. There is at most
// one: Observe records an instance once.
func (sn *Snapshot) find(s *Semantic) *snapEntry {
	for i := range sn.e[:min(sn.n, snapInline)] {
		if sn.e[i].sem == s {
			return &sn.e[i]
		}
	}
	if sn.n > snapInline {
		for i := range sn.more[:sn.n-snapInline] {
			if sn.more[i].sem == s {
				return &sn.more[i]
			}
		}
	}
	return nil
}

// Observe is the optimistic counterpart of Lock: instead of acquiring
// mode m on instance s it snapshots the version counter of m's
// mechanism (after checking that no conflicting mode currently has a
// holder) for Validate. Mirroring Lock's LV semantics, a nil instance
// and a re-observation of an already-observed instance are no-ops.
// Observe reports whether the observation is admissible; false — a
// conflicting holder is visible, counted as a refusal — means the
// section should give up and run its pessimistic prologue.
func (sn *Snapshot) Observe(s *Semantic, m ModeID) bool {
	if s == nil {
		return true
	}
	if sn.find(s) != nil {
		return true // LOCAL_SET: one observation per instance
	}
	ver, ok := s.observeMode(m)
	if !ok {
		// The pessimistic prologue would have blocked. A refusal, not a
		// failed validation: no body ran, nothing is re-executed.
		s.optRefused.Add(1)
		return false
	}
	e := snapEntry{sem: s, ver: ver, mode: m}
	if sn.n < snapInline {
		sn.e[sn.n] = e
	} else {
		sn.more = append(sn.more[:sn.n-snapInline], e)
	}
	sn.n++
	return true
}

// Validate re-checks every observation with one version compare per
// observed instance (see Semantic.validateMode for why the acquire-side
// bump makes a holder re-scan unnecessary) and empties the vector. It
// counts a hit on each instance when all validate, or a retry on the
// first instance whose version moved.
func (sn *Snapshot) Validate() bool {
	in, over := sn.e[:min(sn.n, snapInline)], sn.more[:max(sn.n-snapInline, 0)]
	sn.n = 0
	if !validateAll(in) || !validateAll(over) {
		return false
	}
	for i := range in {
		in[i].sem.optHits.Add(1)
	}
	for i := range over {
		over[i].sem.optHits.Add(1)
	}
	return true
}

// validateAll compares every observation's version, counting a retry
// on the first instance whose version moved. It stays out of line, as
// it was while a gate call kept it over the inlining budget: inlined at
// both of Validate's call sites it grows Validate from 314 to 542 bytes
// and moves every function linked after this package by 32 bytes modulo
// a cache line; net-rpc read 5–10 % slower that way (EXPERIMENTS.md
// "Deleting the optimistic gate").
//
//go:noinline
func validateAll(es []snapEntry) bool {
	for i := range es {
		if e := &es[i]; !e.sem.validateMode(e.mode, e.ver) {
			e.sem.optRetries.Add(1)
			return false
		}
	}
	return true
}
