package core

import "fmt"

// This file extends the commutativity-condition algebra with ORDERED
// predicates (a < b), enabling semantic locks over range operations —
// e.g. an ordered map where rangeCount(lo,hi) commutes with put(k,v)
// whenever k < lo or k > hi. The paper's conditions (Fig 3b) only need
// (dis)equality; ordered ADTs are the natural next ADT family and this
// is the corresponding extension of §5's mode machinery.
//
// Symbolic reasoning about order requires φ's buckets to be ordered:
// IntervalPhi partitions an integer key domain into consecutive
// intervals, so bucket indices compare like the values they contain.

// OrderedPhi is a φ whose buckets are intervals of an integer domain:
// Bounds returns the inclusive value range covered by a bucket. The
// ordered conditions below only reason symbolically over φs that
// implement this interface; under any other φ they are simply never
// "definitely" true (sound, just conservative).
type OrderedPhi interface {
	Phi
	// Bounds returns the inclusive [lo, hi] range of bucket b.
	Bounds(b int) (lo, hi int64)
}

// IntervalPhi partitions [0, Max) into n equal consecutive intervals.
// Values below 0 clamp into bucket 0 and values ≥ Max into bucket n-1,
// keeping Abstract total. Non-integer values hash into buckets like
// HashPhi, but then carry no order information.
type IntervalPhi struct {
	n   int
	max int64
}

// NewIntervalPhi creates an interval-partitioned φ over [0, max).
func NewIntervalPhi(n int, max int64) *IntervalPhi {
	if n <= 0 || max < int64(n) {
		panic(fmt.Sprintf("core: NewIntervalPhi(%d, %d): need n > 0 and max ≥ n", n, max))
	}
	return &IntervalPhi{n: n, max: max}
}

// N returns the bucket count.
func (p *IntervalPhi) N() int { return p.n }

func (*IntervalPhi) sealed() {}

// Abstract maps integer values by interval and everything else by hash.
func (p *IntervalPhi) Abstract(v Value) int {
	k, ok := asInt64(v)
	if !ok {
		return int(hashValue(v) % uint64(p.n))
	}
	if k < 0 {
		return 0
	}
	if k >= p.max {
		return p.n - 1
	}
	return int(k * int64(p.n) / p.max)
}

// Bounds returns the inclusive value range of bucket b.
func (p *IntervalPhi) Bounds(b int) (int64, int64) {
	lo := int64(b) * p.max / int64(p.n)
	hi := int64(b+1)*p.max/int64(p.n) - 1
	if b == 0 {
		lo = minInt64
	}
	if b == p.n-1 {
		hi = maxInt64
	}
	return lo, hi
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

func asInt64(v Value) (int64, bool) {
	switch x := v.(type) {
	case int:
		return int64(x), true
	case int8:
		return int64(x), true
	case int16:
		return int64(x), true
	case int32:
		return int64(x), true
	case int64:
		return x, true
	case uint8:
		return int64(x), true
	case uint16:
		return int64(x), true
	case uint32:
		return int64(x), true
	}
	return 0, false
}

// valueRange returns the inclusive integer range a mode argument can
// denote under φ, and whether that range is known.
func valueRange(a ModeArg, phi Phi) (lo, hi int64, ok bool) {
	switch a.Kind {
	case ModeConst:
		v, isInt := asInt64(a.Val)
		if !isInt {
			return 0, 0, false
		}
		return v, v, true
	case ModeAbs:
		op, isOrdered := phi.(OrderedPhi)
		if !isOrdered {
			return 0, 0, false
		}
		lo, hi = op.Bounds(a.Abs)
		return lo, hi, true
	default: // Star
		return 0, 0, false
	}
}

// condLT is the ordered condition: argument I of the first operation is
// strictly less than argument J of the second.
type condLT struct{ i, j int }

// ArgsLT returns the condition "arg i of the first op < arg j of the
// second op". Non-integer arguments never satisfy it.
func ArgsLT(i, j int) Cond { return condLT{i, j} }

// ArgsGT returns the condition "arg i of the first op > arg j of the
// second op".
func ArgsGT(i, j int) Cond { return condLT{j, i}.swappedView() }

func (c condLT) Holds(a, b []Value) bool {
	x, okX := asInt64(a[c.i])
	y, okY := asInt64(b[c.j])
	return okX && okY && x < y
}

func (c condLT) Definitely(a, b []ModeArg, phi Phi) bool {
	_, hiX, okX := valueRange(a[c.i], phi)
	loY, _, okY := valueRange(b[c.j], phi)
	return okX && okY && hiX < loY
}

func (c condLT) Swapped() Cond  { return c.swappedView() }
func (c condLT) String() string { return fmt.Sprintf("a%d<b%d", c.i, c.j) }

// condGTView is condLT with operand roles exchanged: first[i] > second[j].
type condGTView struct{ i, j int }

func (c condLT) swappedView() Cond { return condGTView{c.j, c.i} }

func (c condGTView) Holds(a, b []Value) bool {
	x, okX := asInt64(a[c.i])
	y, okY := asInt64(b[c.j])
	return okX && okY && x > y
}

func (c condGTView) Definitely(a, b []ModeArg, phi Phi) bool {
	loX, _, okX := valueRange(a[c.i], phi)
	_, hiY, okY := valueRange(b[c.j], phi)
	return okX && okY && loX > hiY
}

func (c condGTView) Swapped() Cond  { return condLT{c.j, c.i} }
func (c condGTView) String() string { return fmt.Sprintf("a%d>b%d", c.i, c.j) }
