package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"unsafe"
)

// Phi is the hash function φ : Value → {α_1, ..., α_n} of §5.1 that maps
// runtime values to n abstract values. Abstract values are represented as
// integers in [0, n). φ partitions the value domain: each abstract value
// α_i represents the disjoint bucket {v | φ(v) = α_i}.
//
// The interface is sealed: every φ lives in this package, which is what
// lets mode selection pass Abstract a key that is still on its caller's
// stack (see noescape). An Abstract must not keep v, or anything that
// points into v, after it returns.
type Phi interface {
	// N returns the number of abstract values n.
	N() int
	// Abstract returns φ(v) ∈ [0, N()).
	Abstract(v Value) int

	sealed()
}

// HashPhi is the default φ: an FNV-1a hash of the value's canonical bytes
// reduced modulo n. The paper's evaluation uses n = 64 (§5.3).
type HashPhi struct {
	n uint64
	// mask is n-1 when n is a power of two above 1 — the bucket is then
	// h & mask, no division — and 0 otherwise.
	mask uint64
}

// NewPhi returns a HashPhi with n abstract values. n must be positive.
func NewPhi(n int) *HashPhi {
	if n <= 0 {
		panic(fmt.Sprintf("core: NewPhi(%d): n must be positive", n))
	}
	p := &HashPhi{n: uint64(n)}
	if n&(n-1) == 0 {
		p.mask = p.n - 1
	}
	return p
}

// DefaultAbstractValues is the φ range used throughout the paper's
// evaluation (§5.3).
const DefaultAbstractValues = 64

// N returns the number of abstract values.
func (p *HashPhi) N() int { return int(p.n) }

// Abstract maps v to its abstract value; see HashOf for what is hashed.
// (One conversion at the end, not one per branch: that is what keeps it
// inside the inliner's budget, and so one call out of mode selection.)
func (p *HashPhi) Abstract(v Value) int {
	h := hashValue(v)
	if p.mask != 0 {
		h &= p.mask
	} else {
		h %= p.n
	}
	return int(h)
}

func (*HashPhi) sealed() {}

// HashOf returns the 64-bit hash of a value that HashPhi buckets by.
// It is exported so that containers (internal/adt) can stripe their
// internal state consistently with φ.
//
// Scalars hash their bits and strings their bytes. A pointer, channel
// or unsafe.Pointer hashes its address — identity, which is what == on
// a Value compares: the hash does not allocate, does not move while the
// pointee mutates, and differs for distinct pointers to equal contents.
// (The Go collector does not move heap objects, and a pointer shared
// between transactions has escaped to the heap.) Any other comparable
// value — a struct, an array — hashes its fmt rendering.
func HashOf(v Value) uint64 { return hashValue(v) }

func hashValue(v Value) uint64 {
	switch x := v.(type) {
	case int:
		return mix(uint64(x))
	case int8:
		return mix(uint64(x))
	case int16:
		return mix(uint64(x))
	case int32:
		return mix(uint64(x))
	case int64:
		return mix(uint64(x))
	case uint:
		return mix(uint64(x))
	case uint8:
		return mix(uint64(x))
	case uint16:
		return mix(uint64(x))
	case uint32:
		return mix(uint64(x))
	case uint64:
		return mix(x)
	case uintptr:
		return mix(uint64(x))
	case bool:
		if x {
			return mix(1)
		}
		return mix(0)
	case float64:
		return mix(math.Float64bits(x))
	case float32:
		return mix(uint64(math.Float32bits(x)))
	case string:
		// FNV-1a, the loop hash/fnv's New64a runs, over the string in
		// place: no hasher, no []byte copy of the key.
		h := uint64(fnvOffset64)
		for i := 0; i < len(x); i++ {
			h = (h ^ uint64(x[i])) * fnvPrime64
		}
		return h
	}
	return hashOther(noescape(v))
}

// hashOther hashes the kinds hashValue's switch does not name. It is
// kept out of line, and handed its argument through noescape, so that
// reflect and fmt — which the compiler must assume keep what they are
// given — do not make every caller of hashValue box its key on the
// heap. It honours noescape's contract by handing fmt a heap copy: fmt
// parks its operand in a pooled printer while it runs, and a pointer
// held there would not follow the box if the stack moved under it.
//
//go:noinline
func hashOther(v Value) uint64 {
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Pointer, reflect.Chan, reflect.UnsafePointer:
		return mix(uint64(rv.Pointer()))
	case reflect.Invalid: // nil
	default:
		c := reflect.New(rv.Type()).Elem()
		c.Set(rv)
		v = c.Interface()
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%T:%v", v, v)
	return h.Sum64()
}

// noescape returns v with its tie to the argument cut, as far as escape
// analysis can see: a key handed on through it can stay on its caller's
// stack although the callee's signature says it leaks. That is sound
// only for a callee that keeps nothing of v once it returns, which is
// true of its two call sites — hashOther, and a φ's Abstract behind the
// sealed Phi interface — and is why there are no others. The two
// interface words are copied as integers through a typed pointer; the
// usual unsafe.Pointer(uintptr(p)) round trip is what vet's unsafeptr
// check rejects.
func noescape(v Value) (out Value) {
	*(*[2]uintptr)(unsafe.Pointer(&out)) = *(*[2]uintptr)(unsafe.Pointer(&v))
	return out
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mix is a 64-bit finalizer (splitmix64) so that small consecutive
// integers spread across buckets instead of clustering.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FixedPhi is a φ for tests: explicit assignments with a default bucket.
// It makes examples like Fig 19 ("φ(5) = α1") directly expressible.
type FixedPhi struct {
	n         int
	assign    map[Value]int
	defaultTo int
}

// NewFixedPhi builds a FixedPhi with n abstract values; unassigned values
// map to bucket def.
func NewFixedPhi(n, def int, assign map[Value]int) *FixedPhi {
	if n <= 0 || def < 0 || def >= n {
		panic("core: NewFixedPhi: invalid parameters")
	}
	for v, b := range assign {
		if b < 0 || b >= n {
			panic(fmt.Sprintf("core: NewFixedPhi: bucket %d for %v out of range", b, v))
		}
	}
	return &FixedPhi{n: n, assign: assign, defaultTo: def}
}

// N returns the number of abstract values.
func (p *FixedPhi) N() int { return p.n }

func (*FixedPhi) sealed() {}

// Abstract returns the assigned bucket, or the default bucket.
func (p *FixedPhi) Abstract(v Value) int {
	if b, ok := p.assign[v]; ok {
		return b
	}
	return p.defaultTo
}
