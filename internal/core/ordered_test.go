package core

import (
	"testing"
)

func TestIntervalPhiBuckets(t *testing.T) {
	phi := NewIntervalPhi(4, 100)
	if phi.N() != 4 {
		t.Fatal("N wrong")
	}
	cases := map[int64]int{0: 0, 24: 0, 25: 1, 49: 1, 50: 2, 75: 3, 99: 3}
	for v, want := range cases {
		if got := phi.Abstract(v); got != want {
			t.Errorf("Abstract(%d) = %d, want %d", v, got, want)
		}
	}
	// Clamping keeps Abstract total on all ints.
	if phi.Abstract(int64(-5)) != 0 || phi.Abstract(int64(1000)) != 3 {
		t.Error("out-of-domain ints must clamp to edge buckets")
	}
	// Bucket bounds are consistent with Abstract on interior buckets.
	for b := 1; b < 3; b++ {
		lo, hi := phi.Bounds(b)
		if phi.Abstract(lo) != b || phi.Abstract(hi) != b {
			t.Errorf("bucket %d bounds [%d,%d] not self-consistent", b, lo, hi)
		}
	}
	// Edge buckets are unbounded toward their side.
	if lo, _ := phi.Bounds(0); lo != minInt64 {
		t.Error("bucket 0 must extend to -inf")
	}
	if _, hi := phi.Bounds(3); hi != maxInt64 {
		t.Error("last bucket must extend to +inf")
	}
}

func TestArgsLTConcrete(t *testing.T) {
	lt := ArgsLT(0, 0)
	if !lt.Holds([]Value{int64(1)}, []Value{int64(2)}) {
		t.Error("1 < 2")
	}
	if lt.Holds([]Value{int64(2)}, []Value{int64(2)}) {
		t.Error("2 < 2 must fail")
	}
	if lt.Holds([]Value{"x"}, []Value{int64(2)}) {
		t.Error("non-int must not satisfy LT")
	}
	gt := ArgsGT(0, 1)
	if !gt.Holds([]Value{int64(9)}, []Value{int64(0), int64(5)}) {
		t.Error("9 > 5")
	}
	// Swapped round trip: (a0 < b0) swapped means first op is the old
	// second: a0 > b0.
	sw := lt.Swapped()
	if !sw.Holds([]Value{int64(5)}, []Value{int64(2)}) {
		t.Error("swapped LT must be GT")
	}
	if sw.Swapped().String() != lt.String() {
		t.Errorf("double swap: %s vs %s", sw.Swapped(), lt)
	}
}

func TestArgsLTSymbolic(t *testing.T) {
	phi := NewIntervalPhi(4, 100) // buckets [..24][25..49][50..74][75..]
	lt := ArgsLT(0, 0)
	if !lt.Definitely([]ModeArg{MAbs(0)}, []ModeArg{MAbs(2)}, phi) {
		t.Error("bucket0 < bucket2 must be definite")
	}
	if lt.Definitely([]ModeArg{MAbs(1)}, []ModeArg{MAbs(1)}, phi) {
		t.Error("same bucket not definitely ordered")
	}
	if lt.Definitely([]ModeArg{MAbs(2)}, []ModeArg{MAbs(1)}, phi) {
		t.Error("bucket2 < bucket1 is false")
	}
	if !lt.Definitely([]ModeArg{MConst(int64(10))}, []ModeArg{MAbs(1)}, phi) {
		t.Error("10 < [25..49] definite")
	}
	if lt.Definitely([]ModeArg{MConst(int64(30))}, []ModeArg{MAbs(1)}, phi) {
		t.Error("30 vs [25..49] not definite")
	}
	if lt.Definitely([]ModeArg{MStar()}, []ModeArg{MAbs(3)}, phi) {
		t.Error("* never definitely ordered")
	}
	// Under an unordered φ, never definite.
	hphi := NewPhi(4)
	if lt.Definitely([]ModeArg{MAbs(0)}, []ModeArg{MAbs(2)}, hphi) {
		t.Error("hash buckets carry no order")
	}
}

// TestRangeLockModes is the headline of the ordered extension: an
// OrderedMap-style spec where rangeCount(lo,hi) commutes with put(k,v)
// iff k < lo or k > hi, compiled over an IntervalPhi — inserts outside
// a scanned range proceed concurrently with the scan, inserts inside
// it block.
func TestRangeLockModes(t *testing.T) {
	spec := NewSpec("OM",
		MethodSig{"put", 2},
		MethodSig{"rangeCount", 2},
	)
	spec.Commute("put", "put", ArgsNE(0, 0))
	spec.Commute("put", "rangeCount", OrCond(ArgsLT(0, 0), ArgsGT(0, 1)))
	spec.Commute("rangeCount", "rangeCount", Always)

	phi := NewIntervalPhi(8, 800) // buckets of width 100
	putSet := SymSetOf(SymOpOf("put", VarArg("k"), Star()))
	rangeSet := SymSetOf(SymOpOf("rangeCount", VarArg("lo"), VarArg("hi")))
	tbl := NewModeTable(spec, []SymSet{putSet, rangeSet}, TableOptions{Phi: phi, MaxModes: 8 + 64})

	put := tbl.Set(putSet).Binder1("k")
	rng := tbl.Set(rangeSet).Binder2("lo", "hi")

	scan := rng(int64(250), int64(349)) // covers buckets 2..3
	below := put(int64(50))             // bucket 0
	above := put(int64(750))            // bucket 7
	inside := put(int64(300))           // bucket 3

	if !tbl.Commute(scan, below) {
		t.Error("insert below the scanned range must commute")
	}
	if !tbl.Commute(scan, above) {
		t.Error("insert above the scanned range must commute")
	}
	if tbl.Commute(scan, inside) {
		t.Error("insert inside the scanned range must conflict")
	}
	if !tbl.Commute(scan, rng(int64(0), int64(799))) {
		t.Error("scans commute with scans")
	}

	// Behavioral: a held scan blocks only inside inserts.
	s := NewSemantic(tbl)
	s.Acquire(scan)
	if !s.TryAcquire(below) {
		t.Error("outside insert blocked by scan")
	}
	if s.TryAcquire(inside) {
		t.Error("inside insert admitted during scan")
	}
	s.Release(below)
	s.Release(scan)
	if !s.TryAcquire(inside) {
		t.Error("inside insert blocked after scan released")
	}
	s.Release(inside)
}

// TestRangeLockSoundness: brute-force check of the compiled range
// table: modes declared commutative only cover commuting ops.
func TestRangeLockSoundness(t *testing.T) {
	spec := NewSpec("OM", MethodSig{"put", 2}, MethodSig{"rangeCount", 2})
	spec.Commute("put", "put", ArgsNE(0, 0))
	spec.Commute("put", "rangeCount", OrCond(ArgsLT(0, 0), ArgsGT(0, 1)))
	spec.Commute("rangeCount", "rangeCount", Always)
	phi := NewIntervalPhi(4, 40)
	tbl := NewModeTable(spec, []SymSet{
		SymSetOf(SymOpOf("put", VarArg("k"), Star())),
		SymSetOf(SymOpOf("rangeCount", VarArg("lo"), VarArg("hi"))),
	}, TableOptions{Phi: phi, MaxModes: 64})

	var ops []Op
	for k := int64(0); k < 40; k += 3 {
		ops = append(ops, NewOp("put", k, "v"))
		ops = append(ops, NewOp("rangeCount", k, k+7))
	}
	modes := tbl.Modes()
	for i := range modes {
		for j := range modes {
			if !tbl.Commute(ModeID(i), ModeID(j)) {
				continue
			}
			for _, oa := range ops {
				if !modes[i].Covers(oa, phi) {
					continue
				}
				for _, ob := range ops {
					if !modes[j].Covers(ob, phi) {
						continue
					}
					if !spec.OpsCommute(oa, ob) {
						t.Fatalf("F_c(%s,%s)=true but %s / %s conflict", modes[i], modes[j], oa, ob)
					}
				}
			}
		}
	}
}
