package core

import (
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestPhiRange(t *testing.T) {
	phi := NewPhi(64)
	if phi.N() != 64 {
		t.Fatalf("N = %d, want 64", phi.N())
	}
	values := []Value{0, 1, -5, int64(7), uint32(9), "hello", 3.14, true, false, struct{ A int }{4}}
	for _, v := range values {
		b := phi.Abstract(v)
		if b < 0 || b >= 64 {
			t.Errorf("Abstract(%v) = %d out of range", v, b)
		}
	}
}

func TestPhiDeterministic(t *testing.T) {
	phi := NewPhi(16)
	for _, v := range []Value{42, "x", 1.5} {
		if phi.Abstract(v) != phi.Abstract(v) {
			t.Errorf("Abstract(%v) not deterministic", v)
		}
	}
}

// TestPhiIntSpread checks that consecutive small integers (the common key
// pattern in the paper's workloads) spread over buckets rather than
// clustering — important for the parallelism the modes admit.
func TestPhiIntSpread(t *testing.T) {
	phi := NewPhi(64)
	counts := make([]int, 64)
	const n = 64 * 64
	for i := 0; i < n; i++ {
		counts[phi.Abstract(i)]++
	}
	for b, c := range counts {
		if c == 0 {
			t.Errorf("bucket %d empty after %d consecutive ints", b, n)
		}
		if c > 4*n/64 {
			t.Errorf("bucket %d badly overloaded: %d of %d", b, c, n)
		}
	}
}

func TestPhiQuickRange(t *testing.T) {
	phi := NewPhi(7)
	f := func(x int64, s string) bool {
		a, b := phi.Abstract(x), phi.Abstract(s)
		return a >= 0 && a < 7 && b >= 0 && b < 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFixedPhi(t *testing.T) {
	phi := NewFixedPhi(2, 1, map[Value]int{5: 0})
	if phi.Abstract(5) != 0 {
		t.Error("assigned value must map to its bucket")
	}
	if phi.Abstract(99) != 1 {
		t.Error("unassigned value must map to default bucket")
	}
	if phi.N() != 2 {
		t.Error("N wrong")
	}
}

func TestNewPhiPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPhi(0) must panic")
		}
	}()
	NewPhi(0)
}

func TestReducedPhi(t *testing.T) {
	base := NewPhi(64)
	r := &reducedPhi{base: base, n: 8}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	for i := 0; i < 100; i++ {
		if got, want := r.Abstract(i), base.Abstract(i)%8; got != want {
			t.Errorf("reduced bucket of %d = %d, want %d", i, got, want)
		}
	}
}

// TestPhiPointerIdentity: φ of a pointer is a function of its address —
// unchanged when the pointee mutates, different for two pointers to
// equal contents, and allocation-free.
func TestPhiPointerIdentity(t *testing.T) {
	type conn struct {
		name   string
		frames int
	}
	p, q := &conn{name: "m0"}, &conn{name: "m0"}
	var pv, qv Value = p, q
	before := HashOf(pv)
	p.frames++
	p.name = "renamed"
	if after := HashOf(pv); after != before {
		t.Errorf("HashOf(p) moved %#x -> %#x when *p changed", before, after)
	}
	if HashOf(pv) == HashOf(qv) {
		t.Errorf("HashOf equal for two distinct pointers: %#x", before)
	}
	ch := make(chan int)
	if HashOf(ch) != HashOf(ch) || HashOf(ch) == HashOf(make(chan int)) {
		t.Error("HashOf(chan) is not its identity")
	}
	if n := testing.AllocsPerRun(100, func() { HashOf(pv) }); n != 0 {
		t.Errorf("HashOf(pointer) allocates %v per run, want 0", n)
	}
}

// TestHashOfStringMatchesFNV: the string case's inline loop is FNV-1a
// bit for bit — φ buckets and adt stripes of string keys are where
// hash/fnv put them — and hashes a key of any length without allocating.
func TestHashOfStringMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		h := fnv.New64a()
		h.Write(b)
		if got, want := HashOf(string(b)), h.Sum64(); got != want {
			t.Fatalf("HashOf(%q) = %#x, fnv-1a = %#x", b, got, want)
		}
	}
	var long Value = strings.Repeat("k", 100)
	if n := testing.AllocsPerRun(100, func() { HashOf(long) }); n != 0 {
		t.Errorf("HashOf of a 100-byte string allocates %v per run, want 0", n)
	}
}
