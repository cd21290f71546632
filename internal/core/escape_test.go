package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The tests of the escape contract: a key handed to mode selection or
// to HashOf stays on its caller's stack (DESIGN.md §8), hashes to what
// it always did, and selects the mode its φ names.

type goldenKey struct {
	A int
	B string
}

// goldenStringer takes fmt's method path, which reads the operand back
// out of the printer it was parked in.
type goldenStringer struct{ ID int }

func (k goldenStringer) String() string { return fmt.Sprintf("k%d", k.ID) }

// TestHashOfGolden pins HashOf bit for bit, on values recorded before
// hashValue's fallback moved out of line: φ buckets and adt stripes of
// every key kind are where they were.
func TestHashOfGolden(t *testing.T) {
	golden := []struct {
		v    Value
		want uint64
	}{
		{int(0), 0xe220a8397b1dcdaf},
		{int(-7), 0x6c1e186443822970},
		{int(1 << 40), 0x1fdd7128f310c389},
		{int8(-3), 0xf75f04cbb5a1a1dd},
		{int16(300), 0x2fb54c54d1eb0392},
		{int32(-70000), 0xc53452a79dc05ad4},
		{int64(1 << 50), 0xa3621c944b1a4d68},
		{uint(9), 0xaeaf52febe706064},
		{uint8(200), 0x3f13f4e3c8c592c9},
		{uint16(60000), 0x827e91b5e761a920},
		{uint32(4000000000), 0x612f5c80e93437d6},
		{uint64(1 << 63), 0x481ec0a212a9f3db},
		{uintptr(0xdeadbeef), 0x4adfb90f68c9eb9b},
		{true, 0x910a2dec89025cc1},
		{false, 0xe220a8397b1dcdaf},
		{float64(3.5), 0x914e207e42057c1},
		{float32(1.25), 0x43f011ac1896d57a},
		{"", 0xcbf29ce484222325},
		{"a", 0xaf63dc4c8601ec8c},
		{"g0", 0x8950607b53f1062},
		{"member-00017", 0xe44bdd76f990cefe},
		{"héllo, wörld", 0x6600dc769ce4992e},
		{nil, 0x8d088d580fbd82a5},
		{goldenKey{7, "x"}, 0xdfeb9ec4ea2f70a3},
		{goldenKey{}, 0x703e6be4c55ae7ca},
		{goldenStringer{42}, 0xf46c81340dd49b7e},
		{[2]int{1, 2}, 0xa513c4480fa37bb},
		{struct{}{}, 0xaee5c814ef21d15a},
		{complex(1, 2), 0x3ce3af6e5aba09aa},
	}
	for _, g := range golden {
		if got := HashOf(g.v); got != g.want {
			t.Errorf("HashOf(%#v) = %#x, want %#x", g.v, got, g.want)
		}
	}
	// A pointer hashes its address, which no table can hold.
	p := &goldenKey{A: 1}
	if got, want := HashOf(p), mix(uint64(reflect.ValueOf(p).Pointer())); got != want {
		t.Errorf("HashOf(%p) = %#x, want the mix of its address %#x", p, got, want)
	}
}

// escapeTables builds one table per φ that selection reaches through
// ModeTable.abstract: HashPhi at several widths, a HashPhi the mode cap
// coarsens to a divisor (plain HashPhi again) and to a non-divisor
// (reducedPhi), and the two φ that receive their key through noescape.
func escapeTables(t testing.TB) map[string]*ModeTable {
	t.Helper()
	one := SymSetOf(SymOpOf("get", VarArg("k")))
	two := SymSetOf(SymOpOf("put", VarArg("k"), VarArg("v")))
	fixed := map[Value]int{5: 1, "m0": 2, goldenKey{7, "x"}: 3, goldenStringer{42}: 3}
	tables := map[string]*ModeTable{
		"fixed":    NewModeTable(mapSpec(), []SymSet{one}, TableOptions{Phi: NewFixedPhi(4, 0, fixed)}),
		"interval": NewModeTable(mapSpec(), []SymSet{one}, TableOptions{Phi: NewIntervalPhi(8, 64)}),
		// The cap halves 16 to 8, which divides it, and 14 to 7 to 3,
		// which does not.
		"coarsened-16": NewModeTable(mapSpec(), []SymSet{one, two}, TableOptions{Phi: NewPhi(16), MaxModes: 100}),
		"coarsened-14": NewModeTable(mapSpec(), []SymSet{one, two}, TableOptions{Phi: NewPhi(14), MaxModes: 20}),
		"coarsened-fixed": NewModeTable(mapSpec(), []SymSet{one, two},
			TableOptions{Phi: NewFixedPhi(4, 0, fixed), MaxModes: 8}),
	}
	for _, n := range []int{1, 3, 16, 48, 64} {
		tables[fmt.Sprintf("hash-%d", n)] = NewModeTable(mapSpec(), []SymSet{one}, TableOptions{Phi: NewPhi(n)})
	}
	if phi := tables["coarsened-16"].Phi(); tables["coarsened-16"].hash == nil || phi.N() != 8 {
		t.Fatalf("coarsened-16: φ is %T over %d, want a plain HashPhi over 8", phi, phi.N())
	}
	if phi, reduced := tables["coarsened-14"].Phi().(*reducedPhi); !reduced || phi.n != 3 {
		t.Fatalf("coarsened-14: φ is %T, want reducedPhi over 3 (3 does not divide 14)", tables["coarsened-14"].Phi())
	}
	return tables
}

// randomKey draws a key of a random kind, scalar kinds first.
func randomKey(rng *rand.Rand) Value {
	switch rng.Intn(9) {
	case 0:
		return rng.Intn(128) - 32
	case 1:
		return int64(rng.Uint64())
	case 2:
		return uint32(rng.Uint32())
	case 3:
		return fmt.Sprintf("m%d", rng.Intn(1000))
	case 4:
		return rng.Float64()
	case 5:
		return rng.Intn(2) == 0
	case 6:
		return goldenKey{rng.Intn(10), "x"}
	case 7:
		return goldenStringer{rng.Intn(50)}
	}
	return &goldenKey{A: rng.Intn(10)}
}

// TestAbstractMatchesPhi is the property that lets selection bypass the
// interface: ModeTable.abstract is the table's φ, for every φ and key
// kind, and a HashPhi coarsened to a divisor of its width buckets like
// the modulo of the original.
func TestAbstractMatchesPhi(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base16 := NewPhi(16)
	for name, tbl := range escapeTables(t) {
		for i := 0; i < 2000; i++ {
			v := randomKey(rng)
			got, want := tbl.abstract(v), tbl.Phi().Abstract(v)
			if got != want || got < 0 || got >= tbl.Phi().N() {
				t.Fatalf("%s: abstract(%#v) = %d, φ says %d of %d", name, v, got, want, tbl.Phi().N())
			}
			if name == "coarsened-16" && got != base16.Abstract(v)%8 {
				t.Fatalf("coarsened-16: abstract(%#v) = %d, want φ16 mod 8 = %d", v, got, base16.Abstract(v)%8)
			}
		}
	}
}

// heapSink forces heapBoxed's argument to the heap.
var heapSink Value

func heapBoxed(v Value) Value {
	heapSink = v
	return v
}

// stackProbe compares what HashOf and Mode1 make of a key boxed on the
// caller's stack with what they make of an equal key on the heap. The
// two are separate parameters so that reporting the heap one does not
// drag the other off the stack.
type stackProbe struct {
	t               *testing.T
	fixed, interval SetRef // one-variable sets over a FixedPhi and an IntervalPhi table
}

func (p stackProbe) same(depth int, stack, heap Value) {
	if got, want := HashOf(stack), HashOf(heap); got != want {
		p.t.Errorf("depth %d: HashOf(%#v) = %#x on the stack, %#x on the heap", depth, heap, got, want)
	}
	if got, want := p.fixed.Mode1(stack), p.fixed.Mode1(heap); got != want {
		p.t.Errorf("depth %d: FixedPhi Mode1(%#v) = %d on the stack, %d on the heap", depth, heap, got, want)
	}
	if got, want := p.interval.Mode1(stack), p.interval.Mode1(heap); got != want {
		p.t.Errorf("depth %d: IntervalPhi Mode1(%#v) = %d on the stack, %d on the heap", depth, heap, got, want)
	}
}

// descend checks three keys boxed in its own frame — a struct and a
// Stringer, which hashOther renders through fmt, and a string — then
// recurses, then checks them again once the frames below have made the
// stack move under the boxes.
func (p stackProbe) descend(depth, max int) {
	for pass := 0; pass < 2; pass++ {
		p.same(depth, goldenKey{depth % 8, "x"}, heapBoxed(goldenKey{depth % 8, "x"}))
		p.same(depth, goldenStringer{depth % 50}, heapBoxed(goldenStringer{depth % 50}))
		p.same(depth, "m"+string(rune('0'+depth%10)), heapBoxed("m"+string(rune('0'+depth%10))))
		if pass == 0 && depth < max && !p.t.Failed() {
			p.descend(depth+1, max)
		}
	}
}

// TestNoescapeStackGrowth hashes and selects with keys boxed in the
// frames of a growing stack. From a fresh goroutine's small stack the
// probe recurses 4096 frames deep, so the stack is copied to a larger
// one several times — between two uses of a frame's boxes and, because
// the fmt path under hashOther is the deepest thing a frame calls,
// inside hashOther too. Every result must equal the heap-boxed key's.
func TestNoescapeStackGrowth(t *testing.T) {
	tables := escapeTables(t)
	one := SymSetOf(SymOpOf("get", VarArg("k")))
	p := stackProbe{t: t, fixed: tables["fixed"].Set(one), interval: tables["interval"].Set(one)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.descend(1, 4096)
	}()
	<-done
}
