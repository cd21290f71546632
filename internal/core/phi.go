package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
)

// Phi is the hash function φ : Value → {α_1, ..., α_n} of §5.1 that maps
// runtime values to n abstract values. Abstract values are represented as
// integers in [0, n). φ partitions the value domain: each abstract value
// α_i represents the disjoint bucket {v | φ(v) = α_i}.
type Phi interface {
	// N returns the number of abstract values n.
	N() int
	// Abstract returns φ(v) ∈ [0, N()).
	Abstract(v Value) int
}

// HashPhi is the default φ: an FNV-1a hash of the value's canonical bytes
// reduced modulo n. The paper's evaluation uses n = 64 (§5.3).
type HashPhi struct {
	n int
}

// NewPhi returns a HashPhi with n abstract values. n must be positive.
func NewPhi(n int) *HashPhi {
	if n <= 0 {
		panic(fmt.Sprintf("core: NewPhi(%d): n must be positive", n))
	}
	return &HashPhi{n: n}
}

// DefaultAbstractValues is the φ range used throughout the paper's
// evaluation (§5.3).
const DefaultAbstractValues = 64

// N returns the number of abstract values.
func (p *HashPhi) N() int { return p.n }

// Abstract maps v to its abstract value; see HashOf for what is hashed.
func (p *HashPhi) Abstract(v Value) int {
	return int(hashValue(v) % uint64(p.n))
}

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
	switch rv := reflect.ValueOf(v); rv.Kind() {
	case reflect.Pointer, reflect.Chan, reflect.UnsafePointer:
		return mix(uint64(rv.Pointer()))
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%T:%v", v, v)
	return h.Sum64()
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

// Abstract returns the assigned bucket, or the default bucket.
func (p *FixedPhi) Abstract(v Value) int {
	if b, ok := p.assign[v]; ok {
		return b
	}
	return p.defaultTo
}
