package adt

import (
	"sync"

	"repro/internal/core"
)

// Treap is a linearizable ordered map over int64 keys (a randomized
// balanced BST guarded by one mutex). It backs the OrderedMap ADT class
// — the range-operation family whose semantic locks use the ordered
// commutativity conditions (core.ArgsLT/ArgsGT with an IntervalPhi).
// Keys are int64 by contract; that typing is what makes symbolic
// ordered reasoning over φ's interval buckets sound.
type Treap struct {
	mu   sync.Mutex
	root *treapNode
	rng  uint64
	size int
}

type treapNode struct {
	key         int64
	val         core.Value
	prio        uint64
	left, right *treapNode
}

// NewTreap creates an empty ordered map.
func NewTreap() *Treap { return &Treap{rng: 0x9e3779b97f4a7c15} }

func (t *Treap) nextPrio() uint64 {
	// xorshift64*
	t.rng ^= t.rng >> 12
	t.rng ^= t.rng << 25
	t.rng ^= t.rng >> 27
	return t.rng * 0x2545f4914f6cdd1d
}

// Put binds k to v; it returns the previous value (nil when absent).
func (t *Treap) Put(k int64, v core.Value) core.Value {
	t.mu.Lock()
	defer t.mu.Unlock()
	var old core.Value
	t.root, old = t.insert(t.root, k, v)
	if old == nil {
		t.size++
	}
	return old
}

func (t *Treap) insert(n *treapNode, k int64, v core.Value) (*treapNode, core.Value) {
	if n == nil {
		return &treapNode{key: k, val: v, prio: t.nextPrio()}, nil
	}
	switch {
	case k == n.key:
		old := n.val
		n.val = v
		return n, old
	case k < n.key:
		var old core.Value
		n.left, old = t.insert(n.left, k, v)
		if n.left.prio > n.prio {
			n = rotateRight(n)
		}
		return n, old
	default:
		var old core.Value
		n.right, old = t.insert(n.right, k, v)
		if n.right.prio > n.prio {
			n = rotateLeft(n)
		}
		return n, old
	}
}

func rotateRight(n *treapNode) *treapNode {
	l := n.left
	n.left = l.right
	l.right = n
	return l
}

func rotateLeft(n *treapNode) *treapNode {
	r := n.right
	n.right = r.left
	r.left = n
	return r
}

// Get returns the binding of k (nil when absent).
func (t *Treap) Get(k int64) core.Value {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.root
	for n != nil {
		switch {
		case k == n.key:
			return n.val
		case k < n.key:
			n = n.left
		default:
			n = n.right
		}
	}
	return nil
}

// Remove unbinds k; it returns the removed value (nil when absent).
func (t *Treap) Remove(k int64) core.Value {
	t.mu.Lock()
	defer t.mu.Unlock()
	var old core.Value
	t.root, old = t.remove(t.root, k)
	if old != nil {
		t.size--
	}
	return old
}

func (t *Treap) remove(n *treapNode, k int64) (*treapNode, core.Value) {
	if n == nil {
		return nil, nil
	}
	switch {
	case k < n.key:
		var old core.Value
		n.left, old = t.remove(n.left, k)
		return n, old
	case k > n.key:
		var old core.Value
		n.right, old = t.remove(n.right, k)
		return n, old
	default:
		old := n.val
		return merge(n.left, n.right), old
	}
}

func merge(l, r *treapNode) *treapNode {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio:
		l.right = merge(l.right, r)
		return l
	default:
		r.left = merge(l, r.left)
		return r
	}
}

// RangeCount returns the number of keys in [lo, hi].
func (t *Treap) RangeCount(lo, hi int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	count := 0
	var walk func(n *treapNode)
	walk = func(n *treapNode) {
		if n == nil {
			return
		}
		if n.key >= lo {
			walk(n.left)
		}
		if n.key >= lo && n.key <= hi {
			count++
		}
		if n.key <= hi {
			walk(n.right)
		}
	}
	walk(t.root)
	return count
}

// Size returns the binding count.
func (t *Treap) Size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size
}
