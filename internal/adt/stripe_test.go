package adt

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

// checkTable asserts the open-addressing invariants of one table: a
// power-of-two size, at most three-quarters full, n counting the used
// slots, and no free slot between any key and its home (which is what
// find's early exit and backward-shift deletion both depend on).
func checkTable[V any](t *testing.T, tab *table[V]) {
	t.Helper()
	size := len(tab.slots)
	if size == 0 {
		if tab.n != 0 {
			t.Fatalf("no slots but n = %d", tab.n)
		}
		return
	}
	if size&(size-1) != 0 || size < 4 || tab.n*4 > size*3 {
		t.Fatalf("table of %d slots holds %d keys", size, tab.n)
	}
	used := 0
	for i, e := range tab.slots {
		if e.k == nil {
			continue
		}
		used++
		for j := home(core.HashOf(userKey(e.k)), size); j != i; j = (j + 1) & (size - 1) {
			if tab.slots[j].k == nil {
				t.Fatalf("key %v in slot %d: slot %d of its probe chain is free", e.k, i, j)
			}
		}
	}
	if used != tab.n {
		t.Fatalf("n = %d, %d slots used", tab.n, used)
	}
}

// checkMap asserts that m holds exactly ref's bindings, by Get, each,
// Values and Size, and that every stripe's table and the occupancy
// bitmap are well formed.
func checkMap(t *testing.T, m *HashMap, ref map[core.Value]core.Value) {
	t.Helper()
	if m.Size() != len(ref) {
		t.Fatalf("Size = %d, want %d", m.Size(), len(ref))
	}
	seen := make(map[core.Value]bool, len(ref))
	m.each(func(k, v core.Value) bool {
		want, ok := ref[k]
		if !ok || v != want || seen[k] {
			t.Fatalf("each yielded %v→%v (bound %v, to %v, seen %v)", k, v, ok, want, seen[k])
		}
		seen[k] = true
		return true
	})
	if len(seen) != len(ref) || len(m.Values()) != len(ref) {
		t.Fatalf("each saw %d and Values %d of %d bindings", len(seen), len(m.Values()), len(ref))
	}
	for k, want := range ref {
		if got := m.Get(k); got != want || !m.ContainsKey(k) {
			t.Fatalf("Get(%v) = %v, want %v", k, got, want)
		}
	}
	for i := range m.stripes {
		checkTable(t, &m.stripes[i].table)
	}
	if got, want := m.occupied.Load(), nonEmptyStripes(&m.striped); got != want {
		t.Fatalf("occupied = %#x, non-empty stripes = %#x", got, want)
	}
}

// modelOp applies operation op on key k (value v) to both the map and
// the reference and fails on any difference in what they return.
func modelOp(t *testing.T, m *HashMap, ref map[core.Value]core.Value, op byte, k, v core.Value) {
	t.Helper()
	want, had := ref[k]
	var got core.Value
	switch op % 8 {
	case 0, 1:
		got = m.Put(k, v)
		ref[k] = v
	case 2:
		got = m.PutIfAbsent(k, v)
		if !had {
			ref[k] = v
		}
	case 3:
		got = m.Get(k)
	case 4, 5:
		got = m.Remove(k)
		delete(ref, k)
	case 6:
		got = m.ComputeIfAbsent(k, func() core.Value { return v })
		if !had {
			ref[k], want = v, v
		}
	case 7:
		if m.ContainsKey(k) != had {
			t.Fatalf("ContainsKey(%v) = %v", k, !had)
		}
		return
	}
	if got != want {
		t.Fatalf("op %d on %v returned %v, want %v", op%8, k, got, want)
	}
}

// keysWhere returns the first n ints whose hash satisfies ok.
func keysWhere(n int, ok func(h uint64) bool) []core.Value {
	keys := make([]core.Value, 0, n)
	for i := 0; len(keys) < n; i++ {
		if ok(core.HashOf(i)) {
			keys = append(keys, i)
		}
	}
	return keys
}

// chainKeys all live in stripe 5 and, in any table of up to 8192 slots,
// share the last slot as their home: every probe chain they form wraps
// the table end.
var chainKeys = sync.OnceValue(func() []core.Value {
	return keysWhere(24, func(h uint64) bool { return h%numShards == 5 && h>>51 == 1<<13-1 })
})

// modelSpaces is the key-space corpus of the model tests: every key in
// one stripe, every key on one home slot, strings, and ints from 4 keys
// to 8192 with a nil key among them.
func modelSpaces() map[string][]core.Value {
	spaces := map[string][]core.Value{
		"one-stripe-2048": keysWhere(2048, func(h uint64) bool { return h%numShards == 5 }),
		"one-home-slot":   chainKeys(),
		"strings":         {"", "a", "b", "g0", "g1", "m0", "m1", "m10", "a-much-longer-member-name-than-thirty-two-bytes"},
	}
	for _, n := range []int{4, 64, 1024, 8192} {
		keys := []core.Value{nil}
		for i := 1; i < n; i++ {
			keys = append(keys, i)
		}
		spaces[fmt.Sprintf("ints-%d", n)] = keys
	}
	return spaces
}

// TestHashMapModelRandom: random operation sequences agree with Go's
// map over key spaces from 4 keys to 8192, a nil key among them, with
// the tables' invariants checked along the way.
func TestHashMapModelRandom(t *testing.T) {
	for name, keys := range modelSpaces() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(keys))))
			m, ref := NewHashMap(), make(map[core.Value]core.Value)
			ops := 40 * len(keys)
			for i := 0; i < ops; i++ {
				// Alternate phases biased to inserts and to removes, so
				// tables fill past several doublings and drain again.
				op := byte(rng.Intn(8))
				if phase := i / (4 * len(keys)) % 2; phase == 0 && op >= 4 && op <= 5 && rng.Intn(3) != 0 {
					op = 0
				} else if phase == 1 && op <= 1 && rng.Intn(3) != 0 {
					op = 4
				}
				modelOp(t, m, ref, op, keys[rng.Intn(len(keys))], i)
				if i%(ops/50+1) == 0 {
					checkMap(t, m, ref)
				}
				if i == ops/2 {
					m.Clear()
					clear(ref)
					checkMap(t, m, ref)
				}
			}
			checkMap(t, m, ref)

			dst := NewHashMap()
			dst.Put("kept", 1)
			dst.PutAll(m)
			ref["kept"] = 1
			checkMap(t, dst, ref)
		})
	}
}

// TestRangeHeldModel: on every key space of the model corpus, along a
// random operation sequence, RangeHeld yields exactly the locking walk's
// bindings in its order, and stops where f first returns false. One
// goroutine, so the walk's contract (no concurrent writer) holds with no
// lock at all.
func TestRangeHeldModel(t *testing.T) {
	type binding struct{ k, v core.Value }
	// walk collects what a walk of that shape yields, asking it to stop
	// after the stop-th binding (never, when stop is 0).
	walk := func(rangeFn func(func(k, v core.Value) bool), stop int) []binding {
		var out []binding
		rangeFn(func(k, v core.Value) bool {
			out = append(out, binding{k, v})
			return len(out) != stop
		})
		return out
	}
	for name, keys := range modelSpaces() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(keys))))
			m, ref := NewHashMap(), make(map[core.Value]core.Value)
			ops := 20 * len(keys)
			for i := 0; i <= ops; i++ {
				if i == ops/2 {
					m.Clear() // the empty map is a case too
					clear(ref)
				} else {
					modelOp(t, m, ref, byte(rng.Intn(8)), keys[rng.Intn(len(keys))], i)
				}
				if i%(ops/40+1) != 0 && i != ops/2 {
					continue
				}
				want := walk(m.each, 0)
				if len(want) != len(ref) {
					t.Fatalf("each yielded %d of %d bindings", len(want), len(ref))
				}
				for _, stop := range []int{0, 1, len(want) / 2, len(want), len(want) + 1} {
					n := len(want)
					if stop > 0 && stop < n {
						n = stop
					}
					if got := walk(m.RangeHeld, stop); !slices.Equal(got, want[:n]) {
						t.Fatalf("after %d ops, stop %d: RangeHeld yielded %v, each %v", i, stop, got, want[:n])
					}
				}
			}
		})
	}
}

// TestHashMapProbeChains walks one wrapping probe chain through its
// hard cases by hand: growth in the middle of the chain, and deletion
// from its middle, head and tail.
func TestHashMapProbeChains(t *testing.T) {
	keys := chainKeys()
	m, ref := NewHashMap(), make(map[core.Value]core.Value)
	put := func(k core.Value) { modelOp(t, m, ref, 0, k, k); checkMap(t, m, ref) }
	remove := func(k core.Value) { modelOp(t, m, ref, 4, k, nil); checkMap(t, m, ref) }

	for _, k := range keys[:3] { // fills the first table to its limit: slots 3, 0, 1
		put(k)
	}
	if s := &m.stripes[5]; len(s.slots) != 4 || s.slots[3].k != keys[0] || s.slots[0].k != keys[1] {
		t.Fatalf("chain does not wrap the table end: %v", s.slots)
	}
	remove(keys[1]) // middle of the chain: keys[2] shifts back across the wrap
	remove(keys[0]) // head
	put(keys[0])
	remove(keys[0]) // tail

	for _, k := range keys { // grows 4 → 8 → 16 → 32 mid-chain
		put(k)
	}
	if got := len(m.stripes[5].slots); got != 32 {
		t.Fatalf("24 keys in a table of %d slots", got)
	}
	for i := 0; i < len(keys); i += 2 { // every other link
		remove(keys[i])
	}
	for i := 1; i < len(keys); i += 2 {
		remove(keys[i])
	}
	if m.occupied.Load() != 0 {
		t.Fatalf("occupied = %#x after removing everything", m.occupied.Load())
	}
}

// TestHashMapNilKey: nil is a key like any other (Go's map took it), so
// the free slots of a table — whose k is nil — must never answer for it.
func TestHashMapNilKey(t *testing.T) {
	stripe := core.HashOf(nil) % numShards
	neighbours := keysWhere(2, func(h uint64) bool { return h%numShards == stripe })
	m, ref := NewHashMap(), make(map[core.Value]core.Value)
	for _, k := range neighbours { // nil's stripe now has a table with free slots
		modelOp(t, m, ref, 0, k, k)
	}
	if m.ContainsKey(nil) || m.Get(nil) != nil || m.Remove(nil) != nil || m.Size() != 2 {
		t.Fatal("a free slot answered for the nil key")
	}
	if m.Put(nil, "v") != nil || m.Get(nil) != "v" || m.PutIfAbsent(nil, "w") != "v" {
		t.Fatal("nil key not bound by Put")
	}
	ref[nil] = "v"
	checkMap(t, m, ref) // Range hands nil back as nil
	modelOp(t, m, ref, 4, neighbours[0], nil)
	modelOp(t, m, ref, 4, nil, nil)
	checkMap(t, m, ref)

	s := NewHashSet()
	s.Add(neighbours[0])
	if s.Contains(nil) {
		t.Fatal("a free slot answered for the nil element")
	}
	s.Add(nil)
	s.each(func(v core.Value, _ struct{}) bool {
		if v != nil && v != neighbours[0] {
			t.Fatalf("HashSet.each yielded %v", v)
		}
		return true
	})
	if !s.Contains(nil) || s.Size() != 2 {
		t.Fatal("nil element not added")
	}
}

// fuzzKeys is the key pool of FuzzHashMapModel: nil, small ints spread
// over the stripes, the one-home-slot chain, and strings.
func fuzzKeys() []core.Value {
	keys := []core.Value{nil, "", "g0", "m7"}
	for i := 0; i < 12; i++ {
		keys = append(keys, i)
	}
	return append(keys, chainKeys()...)
}

// FuzzHashMapModel reads its input as (operation, key) byte pairs over
// fuzzKeys — 0xff clears — and checks every return value against Go's
// map, then the whole map and its tables at the end.
func FuzzHashMapModel(f *testing.F) {
	keys := fuzzKeys()
	chain := func(op byte, from, to int) []byte {
		var b []byte
		for i := from; i < to; i++ {
			b = append(b, op, byte(16+i))
		}
		return b
	}
	f.Add(chain(0, 0, 24))                                            // grow mid-chain
	f.Add(append(chain(0, 0, 3), 4, 17, 4, 16, 0, 0, 4, 18, 3, 0))    // wrap, delete middle then head, nil key
	f.Add(append(append(chain(0, 0, 24), chain(4, 6, 18)...), 3, 20)) // delete a run from the middle
	f.Add(append(chain(2, 0, 12), 0xff, 0, 6, 5, 7, 0))               // clear, then insert again
	f.Add([]byte{0, 0, 0, 1, 4, 0, 7, 0, 3, 1, 6, 2, 6, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ref := NewHashMap(), make(map[core.Value]core.Value)
		for i := 0; i+1 < len(data); i += 2 {
			if data[i] == 0xff {
				m.Clear()
				clear(ref)
				continue
			}
			modelOp(t, m, ref, data[i], keys[int(data[i+1])%len(keys)], i)
		}
		checkMap(t, m, ref)
	})
}

// TestHashSetAndMultimapModel: the set and the multimap sit on the same
// stripes; a short random sequence each against Go's maps covers their
// own glue (the multimap's per-key value tables, dropped when emptied).
func TestHashSetAndMultimapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := append([]core.Value{nil, "a"}, chainKeys()[:6]...)
	s, sref := NewHashSet(), make(map[core.Value]bool)
	mm, mref := NewMultimap(), make(map[[2]core.Value]bool)
	for i := 0; i < 4000; i++ {
		k, v := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
		kv := [2]core.Value{k, v}
		switch rng.Intn(6) {
		case 0, 1:
			s.Add(k)
			sref[k] = true
			if mm.Put(k, v) == mref[kv] {
				t.Fatalf("Multimap.Put(%v, %v) newness wrong", k, v)
			}
			mref[kv] = true
		case 2:
			s.Remove(k)
			delete(sref, k)
			if mm.Remove(k, v) != mref[kv] {
				t.Fatalf("Multimap.Remove(%v, %v) wrong", k, v)
			}
			delete(mref, kv)
		case 3:
			if s.Contains(k) != sref[k] || mm.ContainsEntry(k, v) != mref[kv] {
				t.Fatalf("Contains(%v) / ContainsEntry(%v, %v) wrong", k, k, v)
			}
		case 4:
			want := 0
			for e := range mref {
				if e[0] == k {
					want++
				}
			}
			for _, got := range mm.Get(k) {
				if !mref[[2]core.Value{k, got}] {
					t.Fatalf("Multimap.Get(%v) yielded %v", k, got)
				}
			}
			if len(mm.Get(k)) != want {
				t.Fatalf("Multimap.Get(%v) returned %d values, want %d", k, len(mm.Get(k)), want)
			}
		case 5:
			if rng.Intn(8) != 0 {
				continue
			}
			for _, got := range mm.RemoveAll(k) {
				if !mref[[2]core.Value{k, got}] {
					t.Fatalf("Multimap.RemoveAll(%v) yielded %v", k, got)
				}
				delete(mref, [2]core.Value{k, got})
			}
			for e := range mref {
				if e[0] == k {
					t.Fatalf("Multimap.RemoveAll(%v) left %v", k, e[1])
				}
			}
		}
		n := 0
		s.each(func(v core.Value, _ struct{}) bool {
			if !sref[v] {
				t.Fatalf("HashSet.each yielded %v", v)
			}
			n++
			return true
		})
		if n != len(sref) || s.Size() != len(sref) || mm.Size() != len(mref) {
			t.Fatalf("set walk %d, Size %d, want %d; multimap Size %d, want %d",
				n, s.Size(), len(sref), mm.Size(), len(mref))
		}
	}
	for i := range mm.stripes {
		checkTable(t, &mm.stripes[i].table)
		for _, e := range mm.stripes[i].slots {
			if e.k != nil && e.v.n == 0 {
				t.Fatalf("multimap kept key %v with no values", e.k)
			}
		}
	}
	if got, want := mm.occupied.Load(), nonEmptyStripes(&mm.striped); got != want {
		t.Fatalf("multimap occupied = %#x, non-empty stripes = %#x", got, want)
	}
}

// TestHashMapWalkHammer: writers churn keys that share one stripe and
// one home slot with a set of stable keys — so every insert lengthens
// the stable bindings' probe chain, every delete shifts them back, and
// the first rounds grow the table under them — while walkers assert
// that Range and Values yield every binding present throughout, exactly
// once. Run under -race.
func TestHashMapWalkHammer(t *testing.T) {
	keys := chainKeys()
	stable, churn := keys[:8], keys[8:]
	m := NewHashMap()
	for _, k := range stable {
		m.Put(k, k)
	}
	isStable := make(map[core.Value]bool)
	for _, k := range stable {
		isStable[k] = true
	}
	stop := make(chan struct{})
	var writers, walkers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			mine := churn[w*4 : w*4+4]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for _, k := range mine {
					m.Put(k, k)
				}
				m.Get(mine[i%4])
				for j := range mine {
					m.Remove(mine[(i+j)%4])
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		walkers.Add(1)
		go func(r int) {
			defer walkers.Done()
			for i := 0; i < 2000; i++ {
				seen := make(map[core.Value]int)
				if (i+r)%2 == 0 {
					m.each(func(k, v core.Value) bool {
						if k != v {
							t.Errorf("Range yielded %v→%v", k, v)
						}
						seen[k]++
						return true
					})
				} else {
					for _, v := range m.Values() {
						seen[v]++
					}
				}
				for _, k := range stable {
					if seen[k] != 1 {
						t.Errorf("walk yielded stable key %v %d times", k, seen[k])
						return
					}
				}
				for k, n := range seen {
					if n != 1 {
						t.Errorf("walk yielded key %v %d times", k, n)
						return
					}
				}
			}
		}(r)
	}
	walkers.Wait()
	close(stop)
	writers.Wait()
	ref := make(map[core.Value]core.Value)
	for _, k := range stable {
		ref[k] = k
	}
	checkMap(t, m, ref)
}

// TestHashMapAllocs pins the allocation-free read path and the
// single-allocation constructor.
func TestHashMapAllocs(t *testing.T) {
	m := NewHashMap()
	keys := benchKeys(1024)
	for _, k := range keys {
		m.Put(k, k)
	}
	var hit, miss core.Value = keys[700], 5000
	if n := testing.AllocsPerRun(100, func() {
		sinkValue = m.Get(hit)
		sinkValue = m.Get(miss)
		if !m.ContainsKey(hit) || m.ContainsKey(miss) {
			t.Fatal("ContainsKey wrong")
		}
	}); n != 0 {
		t.Errorf("Get/ContainsKey allocate %v times per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkValue = NewHashMap() }); n > 1 {
		t.Errorf("NewHashMap allocates %v times", n)
	}
}
