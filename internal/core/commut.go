package core

import (
	"fmt"
	"math/bits"
	"sort"
)

// ModeID identifies a locking mode within a ModeTable. Mode identity is
// the instantiated (raw) mode — the one whose denotation covers the
// transaction's operations. Indistinguishable modes (§5.3, opt. 1) share
// a lock-mechanism counter internally but keep distinct ModeIDs, because
// coverage (which operations a holder may invoke) differs even when
// conflict behaviour does not.
type ModeID int

// TableOptions configures mode-table compilation.
type TableOptions struct {
	// Phi is the abstract-value hash (§5.1). Nil defaults to
	// NewPhi(DefaultAbstractValues).
	Phi Phi
	// MaxModes is the parameter N of §5.3 (opt. 3): the maximum number of
	// raw locking modes per ADT class. If instantiation would exceed it,
	// the table coarsens φ (halving the number of abstract values) until
	// the bound holds. Zero defaults to 4096.
	MaxModes int
	// DisablePartitioning turns off lock partitioning (§5.2) so that a
	// single mechanism guards all modes — ablation A3.
	DisablePartitioning bool
	// DisableMerging turns off indistinguishable-mode merging (§5.3,
	// opt. 1) — used by tests that inspect raw modes.
	DisableMerging bool
}

// setEntry is the per-symbolic-set lookup structure for dynamic mode
// selection (§5.1): the set's variables in canonical order and a dense
// table mapping each assignment of abstract values to the canonical mode.
type setEntry struct {
	set   SymSet
	vars  []string
	modes []ModeID // len == n^len(vars); index = Σ assign[i]·n^i
}

// ModeTable is the compiled locking-mode structure for one ADT class:
// the canonical modes, the commutativity function F_c over them (Fig 19),
// the partition of modes into independent lock mechanisms (§5.2), and
// per-symbolic-set dynamic lookup tables.
type ModeTable struct {
	Spec *Spec

	phi Phi
	// hash is phi when phi is a HashPhi, else nil: abstract then calls
	// it directly instead of through the interface.
	hash   *HashPhi
	modes  []Mode   // all instantiated modes, indexed by ModeID
	fc     [][]bool // F_c over modes
	canon  []int    // mode → canonical (merged) index
	nCanon int
	sets   []setEntry
	setIdx map[string]int // SymSet key → index into sets

	// exclMut[m] is ExcludesMutators(m): F_c(m, ·) is conflict on every
	// mode holding a non-observer operation.
	exclMut []bool

	// Partitioning: part[m] is the mechanism index for mode m, or -1
	// when the mode conflicts with nothing (including itself) and needs
	// no mechanism at all. localIdx[m] is the counter slot of m's
	// canonical mode within its mechanism (merged modes share a slot).
	part      []int
	localIdx  []int
	partSizes []int
	// summaryOn[p] is the static per-mechanism decision to maintain
	// per-word summary counters: it is worth two extra atomic RMWs per
	// acquire/release cycle only when some mode in the mechanism has a
	// wide conflict mask (a wildcard such as size() or clear()) whose
	// exact scan would touch many padded counter lines. Small
	// fine-grained mechanisms — the common case after partitioning —
	// skip summaries entirely and scan exactly, keeping the uncontended
	// fast path at one RMW.
	summaryOn []bool
	// masks[m] is mode m's precompiled conflict scan inside its own
	// mechanism.
	masks []maskInfo
}

type conflictRef struct {
	slot      int
	threshold int32
}

// wordMask is one 64-slot word of a scan's conflict bitset: the index
// of the word in the mechanism's summary array, the conflicting local
// slots within that word, one bit per slot, and the scan's own claims
// on slots of the word — the summary value up to which the word holds
// no foreign claim.
type wordMask struct {
	w    int32
	own  int32
	bits uint64
}

// maskInfo is the conflict-scan structure of one acquisition within one
// mechanism — a single mode's is precompiled here, a batch's is filled
// from pooled scratch (Semantic.acquireMechBatch), so a single mode is
// a batch of one: the counter slots the acquisition claims, the sparse
// word bitset of conflicting slots (only words with at least one
// conflicting slot appear), and the flat conflict list. A slot the
// scanner claims itself has threshold 1 instead of 0 (k when a batch
// claims it k times) because the scanner has already incremented it
// (Fig 20's increment-then-scan).
type maskInfo struct {
	// words drives summary scans and doubles as a parked waiter's
	// conflict mask; a batch's is the union of its constituents'.
	words []wordMask
	// slots lists every counter slot the scan claims, duplicates
	// included, in claim order. selfSlot is slots[0] of a single mode,
	// kept as a field so the flat first attempt (mechV2.tryAcquire)
	// reads it without indexing; batch scans leave it unset.
	slots    []int32
	selfSlot int32
	_pad     [48]byte
	// refs is the flat conflict list — the (local) counter slots the
	// scan conflicts with, each with the count threshold above which it
	// blocks — that mechanisms with summaries off scan directly: for the
	// few slots of a small fine-grained mechanism the threshold-baked
	// linear walk is cheaper than iterating the bitset words.
	refs []conflictRef
	// bump marks scans whose successful acquisition must advance the
	// mechanism's version counter (the optimistic-read invalidation
	// signal): exactly the modes that conflict with something and hold
	// an operation that is not a declared observer, and a batch with
	// any such constituent — once, because one batch is one acquisition
	// event to validators. Acquiring a conflict-free mode, or a mode
	// made only of observers (Spec.IsObserver — the input optimistic
	// certification already trusts), changes nothing a lock-free read
	// saw, so it skips the shared-counter RMW and fails no reader.
	bump bool
}

// The helpers below fill a batch's scan (Semantic.acquireMechBatch);
// the own-claim counts also serve the hot-word scan (mechV2.conflicts)
// and the single-mode scans compiled here.

// ownClaims returns how many claims the scan itself publishes on slot
// (several constituent modes may share a slot after canonical-mode
// merging). Linear over the slots — prologue batches hold a handful of
// modes.
func (c *maskInfo) ownClaims(slot int32) int32 {
	var n int32
	for _, s := range c.slots {
		if s == slot {
			n++
		}
	}
	return n
}

// ownClaimsInWord returns the scan's total claims on slots of word w —
// its own contribution to the mechanism's summary counter of that word.
func (c *maskInfo) ownClaimsInWord(w int32) int32 {
	var n int32
	for _, s := range c.slots {
		if s>>6 == w {
			n++
		}
	}
	return n
}

func (c *maskInfo) addRef(slot int) {
	for i := range c.refs {
		if c.refs[i].slot == slot {
			return
		}
	}
	c.refs = append(c.refs, conflictRef{slot: slot})
}

// mergeWords ORs one mode's conflict word bitset into the union mask.
func (c *maskInfo) mergeWords(words []wordMask) {
	for _, wm := range words {
		merged := false
		for i := range c.words {
			if c.words[i].w == wm.w {
				c.words[i].bits |= wm.bits
				merged = true
				break
			}
		}
		if !merged {
			c.words = append(c.words, wm)
		}
	}
}

// NewModeTable compiles the locking modes for an ADT class from its
// commutativity specification and the symbolic sets appearing at the
// class's lock sites (the output of the §4 refinement).
func NewModeTable(spec *Spec, sets []SymSet, opts TableOptions) *ModeTable {
	phi := opts.Phi
	if phi == nil {
		phi = NewPhi(DefaultAbstractValues)
	}
	maxModes := opts.MaxModes
	if maxModes == 0 {
		maxModes = 4096
	}

	uniq := dedupSets(sets)
	phi = coarsenPhi(phi, uniq, maxModes)

	t := &ModeTable{Spec: spec, phi: phi, setIdx: make(map[string]int)}
	t.hash, _ = phi.(*HashPhi)

	// Instantiate modes per set, building the dynamic lookup tables.
	rawKeyToIdx := make(map[string]int)
	var raw []Mode
	for _, set := range uniq {
		vars := set.Vars()
		entry := setEntry{set: set, vars: vars}
		count := 1
		for range vars {
			count *= phi.N()
		}
		entry.modes = make([]ModeID, count)
		instantiated := InstantiateModes(set, phi)
		if len(instantiated) != count {
			panic("core: mode instantiation count mismatch")
		}
		for i, m := range instantiated {
			key := m.Key()
			idx, ok := rawKeyToIdx[key]
			if !ok {
				idx = len(raw)
				rawKeyToIdx[key] = idx
				raw = append(raw, m)
			}
			entry.modes[i] = ModeID(idx)
		}
		t.setIdx[set.Key()] = len(t.sets)
		t.sets = append(t.sets, entry)
	}
	t.modes = raw

	// F_c over all modes.
	t.fc = make([][]bool, len(raw))
	for i := range raw {
		t.fc[i] = make([]bool, len(raw))
		for j := range raw {
			if j < i {
				t.fc[i][j] = t.fc[j][i]
				continue
			}
			t.fc[i][j] = ModesCommute(spec, raw[i], raw[j], phi)
		}
	}

	// Merge indistinguishable modes (§5.3, opt. 1): l1 ~ l2 iff
	// ∀l: F_c(l1,l) == F_c(l2,l). Merged modes share one counter in the
	// lock mechanism; their ModeIDs stay distinct for coverage.
	t.canon = make([]int, len(raw))
	if opts.DisableMerging {
		for i := range t.canon {
			t.canon[i] = i
		}
		t.nCanon = len(raw)
	} else {
		sig := make(map[string]int)
		for i := range raw {
			key := rowKey(t.fc[i])
			if c, ok := sig[key]; ok {
				t.canon[i] = c
				continue
			}
			c := t.nCanon
			t.nCanon++
			sig[key] = c
			t.canon[i] = c
		}
	}

	// ExcludesMutators, from F_c: a mutator mode is one holding an
	// operation the spec does not declare an observer.
	mutator := make([]bool, len(raw))
	for i := range raw {
		mutator[i] = !spec.observerOnly(raw[i])
	}
	t.exclMut = make([]bool, len(raw))
	for i := range raw {
		t.exclMut[i] = true
		for j := range raw {
			if mutator[j] && t.fc[i][j] {
				t.exclMut[i] = false
				break
			}
		}
	}

	t.partition(opts.DisablePartitioning)
	return t
}

// partition groups modes into independent mechanisms: connected
// components of the conflict graph (edge iff ¬F_c). Modes in different
// components commute pairwise, so separate mechanisms are correct
// (§5.2). Counter slots are allocated per canonical (merged) mode.
func (t *ModeTable) partition(disabled bool) {
	n := len(t.modes)
	t.part = make([]int, n)
	t.localIdx = make([]int, n)

	comp := make([]int, n)
	if disabled {
		for i := range comp {
			comp[i] = 0
		}
	} else {
		for i := range comp {
			comp[i] = -1
		}
		next := 0
		var stack []int
		for i := 0; i < n; i++ {
			if comp[i] != -1 {
				continue
			}
			comp[i] = next
			stack = append(stack[:0], i)
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for v := 0; v < n; v++ {
					// Merged modes must land in one component so they
					// can share a counter slot.
					if (!t.fc[u][v] || t.canon[u] == t.canon[v]) && comp[v] == -1 {
						comp[v] = next
						stack = append(stack, v)
					}
				}
			}
			next++
		}
	}

	// A component with no internal conflicts needs no mechanism: every
	// mode in it commutes with every mode anywhere, so acquisition is
	// free. Assign such modes part = -1.
	nComp := 0
	for _, c := range comp {
		if c+1 > nComp {
			nComp = c + 1
		}
	}
	hasConflict := make([]bool, nComp)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if comp[i] == comp[j] && !t.fc[i][j] {
				hasConflict[comp[i]] = true
			}
		}
	}
	remap := make([]int, nComp)
	nMech := 0
	for c := 0; c < nComp; c++ {
		if hasConflict[c] {
			remap[c] = nMech
			nMech++
		} else {
			remap[c] = -1
		}
	}
	t.partSizes = make([]int, nMech)
	canonSlot := make(map[int]int, t.nCanon) // canonical → slot in its mech
	for i := 0; i < n; i++ {
		p := remap[comp[i]]
		t.part[i] = p
		if p < 0 {
			continue
		}
		c := t.canon[i]
		slot, ok := canonSlot[c]
		if !ok {
			slot = t.partSizes[p]
			t.partSizes[p]++
			canonSlot[c] = slot
		}
		t.localIdx[i] = slot
	}

	// Per-mode scans: the conflict list in local slot space, deduplicated
	// per slot, and its word-bitset form — the O(conflicting modes) ref
	// list becomes O(occupied words) of summary checks on the common
	// path.
	t.masks = make([]maskInfo, n)
	for i := 0; i < n; i++ {
		if t.part[i] < 0 {
			continue
		}
		self := int32(t.localIdx[i])
		mi := maskInfo{selfSlot: self, slots: []int32{self}}
		byWord := make(map[int32]uint64)
		for j := 0; j < n; j++ {
			if t.part[j] != t.part[i] || t.fc[i][j] {
				continue
			}
			slot := t.localIdx[j]
			w, bit := int32(slot)>>6, uint64(1)<<(uint(slot)&63)
			if byWord[w]&bit != 0 {
				continue
			}
			byWord[w] |= bit
			ref := conflictRef{slot: slot, threshold: 0}
			if slot == t.localIdx[i] {
				ref.threshold = 1 // my own increment doesn't block me
			}
			mi.refs = append(mi.refs, ref)
		}
		mi.bump = len(mi.refs) > 0 && !t.Spec.observerOnly(t.modes[i])
		for w, bits := range byWord {
			mi.words = append(mi.words, wordMask{w: w, own: mi.ownClaimsInWord(w), bits: bits})
		}
		sort.Slice(mi.words, func(a, b int) bool { return mi.words[a].w < mi.words[b].w })
		t.masks[i] = mi
	}

	// Decide per mechanism whether summary counters pay for themselves:
	// only when some mode's conflict mask covers at least
	// summaryCutoffSlots slots does the summary shortcut save more scan
	// work than its maintenance costs on every claim.
	t.summaryOn = make([]bool, nMech)
	for i := 0; i < n; i++ {
		p := t.part[i]
		if p < 0 || t.summaryOn[p] {
			continue
		}
		total := 0
		for _, wm := range t.masks[i].words {
			total += bits.OnesCount64(wm.bits)
		}
		if total >= summaryCutoffSlots {
			t.summaryOn[p] = true
		}
	}
}

// summaryCutoffSlots is the conflict-mask width at which a mechanism
// switches from exact per-slot scans to summary-based scans. Below it,
// an exact scan touches so few counter lines that the two summary RMWs
// per acquire/release would dominate; above it, wildcard scans become
// O(words) instead of O(slots).
const summaryCutoffSlots = 16

// Phi returns the (possibly coarsened) abstract-value hash the table was
// compiled with.
func (t *ModeTable) Phi() Phi { return t.phi }

// abstract is t.phi.Abstract(v) as mode selection calls it: v does not
// escape through it. A HashPhi — every table the apps build — is called
// directly; any other φ gets the key through noescape, which the sealed
// Phi interface makes sound.
func (t *ModeTable) abstract(v Value) int {
	if t.hash != nil {
		return t.hash.Abstract(v)
	}
	return t.phi.Abstract(noescape(v))
}

// Modes returns all instantiated locking modes, indexed by ModeID.
func (t *ModeTable) Modes() []Mode { return t.modes }

// CanonicalCount returns the number of counters after merging
// indistinguishable modes (§5.3, opt. 1).
func (t *ModeTable) CanonicalCount() int { return t.nCanon }

// NumMechanisms returns how many independent lock mechanisms the
// partitioning produced.
func (t *ModeTable) NumMechanisms() int { return len(t.partSizes) }

// Commute returns F_c(a, b).
func (t *ModeTable) Commute(a, b ModeID) bool { return t.fc[a][b] }

// Mode returns the mode for an id.
func (t *ModeTable) Mode(id ModeID) Mode { return t.modes[id] }

// ExcludesMutators reports whether holding mode m on an instance keeps
// every mutator of that instance out: F_c(m, m') is conflict for every
// mode m' of the table that holds an operation the Spec does not declare
// an observer (m itself included, when it is such a mode). Computed when
// the table is built. While it is true for a held mode, whatever else
// runs against the instance under this table only observes — the
// precondition of the adt package's *Held walks, which then need no
// synchronisation of their own. The answer is relative to the table's
// sets: an operation performed under no mode of this table is not
// accounted for (guardedby is the analyzer that rules those out).
func (t *ModeTable) ExcludesMutators(m ModeID) bool { return t.exclMut[m] }

// MechanismOf returns the index of the lock mechanism guarding mode id,
// or -1 when the mode conflicts with nothing (including itself) and
// needs no mechanism. Telemetry and plan reports use this to map static
// lock sites to the runtime counters of a specific mechanism.
func (t *ModeTable) MechanismOf(id ModeID) int { return t.part[id] }

// SlotOf returns mode id's counter slot within its mechanism (merged
// indistinguishable modes share a slot), or -1 when the mode needs no
// mechanism.
func (t *ModeTable) SlotOf(id ModeID) int {
	if t.part[id] < 0 {
		return -1
	}
	return t.localIdx[id]
}

// Table returns the ModeTable the set handle was created from.
func (r SetRef) Table() *ModeTable { return r.t }

// Index returns the set's index within its table — a stable identifier
// for reports that enumerate a table's sets.
func (r SetRef) Index() int { return r.idx }

// NumModes returns how many distinct mode selections the set can
// produce (the size of its dynamic lookup table; duplicates possible
// when φ collisions map different assignments to one mode).
func (r SetRef) NumModes() int { return len(r.t.sets[r.idx].modes) }

// ModeIDs returns a copy of the set's dynamic lookup table: the ModeID
// selected for each assignment of abstract values, in the enumeration
// order of InstantiateModes.
func (r SetRef) ModeIDs() []ModeID {
	return append([]ModeID(nil), r.t.sets[r.idx].modes...)
}

// SetRef is a handle to a registered symbolic set, used on the hot path
// to select the runtime locking mode from argument values without map
// lookups (§5.1's dynamic mode selection).
type SetRef struct {
	t   *ModeTable
	idx int
}

// Set returns a handle for the symbolic set, which must have been among
// the sets the table was compiled from.
func (t *ModeTable) Set(set SymSet) SetRef {
	idx, ok := t.setIdx[set.Key()]
	if !ok {
		panic(fmt.Sprintf("core: symbolic set %s not registered in mode table", set))
	}
	return SetRef{t: t, idx: idx}
}

// Vars returns the set's variables in the order Mode expects values.
func (r SetRef) Vars() []string { return r.t.sets[r.idx].vars }

// SymSet returns the underlying symbolic set.
func (r SetRef) SymSet() SymSet { return r.t.sets[r.idx].set }

// Mode selects the locking mode for the given runtime values of the
// set's variables (in Vars() order). For a constant symbolic set call it
// with no values.
func (r SetRef) Mode(vals ...Value) ModeID {
	e := &r.t.sets[r.idx]
	if len(vals) != len(e.vars) {
		panic(fmt.Sprintf("core: set %s expects %d values, got %d", e.set, len(e.vars), len(vals)))
	}
	// vars[0] is the most significant digit, matching the enumeration
	// order of InstantiateModes.
	idx := 0
	n := r.t.phi.N()
	for i := 0; i < len(vals); i++ {
		idx = idx*n + r.t.abstract(vals[i])
	}
	return e.modes[idx]
}

// Binder1 returns a mode selector for a one-variable set, checking at
// setup that the set's variable is name. The returned selector takes
// its single value directly, so a call through it builds no []Value
// slice and allocates nothing. Constant sets (e.g. under the
// no-refinement ablation) are accepted and select their single mode
// regardless of the value.
func (r SetRef) Binder1(name string) func(Value) ModeID {
	vars := r.Vars()
	if len(vars) == 0 {
		id := r.Mode()
		return func(Value) ModeID { return id }
	}
	if len(vars) != 1 || vars[0] != name {
		panic(fmt.Sprintf("core: Binder1(%q): set %s has variables %v", name, r.SymSet(), vars))
	}
	e, t := &r.t.sets[r.idx], r.t
	return func(v Value) ModeID { return e.modes[t.abstract(v)] }
}

// Binder2 is Binder1 for two-variable sets; names give the caller's
// argument order, which may be either permutation of Vars(), so a
// multi-variable lock site is immune to argument-order mistakes. As
// with Binder1, calls through the returned selector are allocation-free.
func (r SetRef) Binder2(n1, n2 string) func(Value, Value) ModeID {
	vars := r.Vars()
	if len(vars) == 0 {
		id := r.Mode()
		return func(Value, Value) ModeID { return id }
	}
	var swap bool
	switch {
	case len(vars) == 2 && n1 == vars[0] && n2 == vars[1]:
	case len(vars) == 2 && n1 == vars[1] && n2 == vars[0]:
		swap = true
	default:
		panic(fmt.Sprintf("core: Binder2(%q,%q): set %s has variables %v", n1, n2, r.SymSet(), vars))
	}
	e, t := &r.t.sets[r.idx], r.t
	n := t.phi.N()
	return func(a, b Value) ModeID {
		if swap {
			a, b = b, a
		}
		return e.modes[t.abstract(a)*n+t.abstract(b)]
	}
}

// CoversOp reports whether the canonical mode id's denotation contains
// the runtime operation op — the basis of the protocol checker.
func (t *ModeTable) CoversOp(id ModeID, op Op) bool {
	return t.modes[id].Covers(op, t.phi)
}

func rowKey(row []bool) string {
	b := make([]byte, len(row))
	for i, v := range row {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

func dedupSets(sets []SymSet) []SymSet {
	seen := make(map[string]bool, len(sets))
	var out []SymSet
	for _, s := range sets {
		if k := s.Key(); !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// coarsenPhi halves the number of abstract values until the total raw
// mode count over all sets fits within maxModes (§5.3, opt. 3 — "if we
// infer more than N modes, we merge them until we have N modes").
func coarsenPhi(phi Phi, sets []SymSet, maxModes int) Phi {
	n := phi.N()
	for n > 1 {
		total := 0
		for _, s := range sets {
			c := 1
			for range s.Vars() {
				c *= n
				if c > maxModes {
					break
				}
			}
			total += c
			if total > maxModes {
				break
			}
		}
		if total <= maxModes {
			break
		}
		n /= 2
	}
	if n == phi.N() {
		return phi
	}
	if _, ok := phi.(*HashPhi); ok && phi.N()%n == 0 {
		// h mod N mod n == h mod n when n divides N: the coarsened φ of
		// a HashPhi is the HashPhi of n.
		return NewPhi(n)
	}
	return &reducedPhi{base: phi, n: n}
}

// reducedPhi coarsens a base φ to fewer buckets by taking the bucket
// modulo n. All modes of one table share one φ, so disjointness
// reasoning stays sound.
type reducedPhi struct {
	base Phi
	n    int
}

func (*reducedPhi) sealed() {}

func (p *reducedPhi) N() int { return p.n }

func (p *reducedPhi) Abstract(v Value) int { return p.base.Abstract(v) % p.n }
