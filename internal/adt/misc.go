package adt

import (
	"container/heap"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Deque is a linearizable double-ended queue.
type Deque struct {
	mu   sync.Mutex
	vals []core.Value // vals[0] is the front
}

// NewDeque creates an empty deque.
func NewDeque() *Deque { return &Deque{} }

// PushFront inserts v at the front.
func (d *Deque) PushFront(v core.Value) {
	d.mu.Lock()
	d.vals = append([]core.Value{v}, d.vals...)
	d.mu.Unlock()
}

// PushBack inserts v at the back.
func (d *Deque) PushBack(v core.Value) {
	d.mu.Lock()
	d.vals = append(d.vals, v)
	d.mu.Unlock()
}

// PopFront removes and returns the front element.
func (d *Deque) PopFront() (core.Value, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.vals) == 0 {
		return nil, false
	}
	v := d.vals[0]
	d.vals = d.vals[1:]
	return v, true
}

// PopBack removes and returns the back element.
func (d *Deque) PopBack() (core.Value, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.vals) == 0 {
		return nil, false
	}
	v := d.vals[len(d.vals)-1]
	d.vals = d.vals[:len(d.vals)-1]
	return v, true
}

// Size returns the element count.
func (d *Deque) Size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.vals)
}

// Counter is a linearizable counter whose increments commute.
type Counter struct {
	n atomic.Int64
}

// NewCounter creates a zeroed counter.
func NewCounter() *Counter { return &Counter{} }

// Inc adds d.
func (c *Counter) Inc(d int64) { c.n.Add(d) }

// Dec subtracts d.
func (c *Counter) Dec(d int64) { c.n.Add(-d) }

// Read returns the current value.
func (c *Counter) Read() int64 { return c.n.Load() }

// PQueue is a linearizable min-priority queue.
type PQueue struct {
	mu sync.Mutex
	h  pqHeap
}

type pqItem struct {
	prio int64
	val  core.Value
}

type pqHeap []pqItem

func (h pqHeap) Len() int           { return len(h) }
func (h pqHeap) Less(i, j int) bool { return h[i].prio < h[j].prio }
func (h pqHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pqHeap) Push(x any)        { *h = append(*h, x.(pqItem)) }
func (h *pqHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// NewPQueue creates an empty priority queue.
func NewPQueue() *PQueue { return &PQueue{} }

// Insert adds v with priority prio (smaller is extracted first).
func (p *PQueue) Insert(prio int64, v core.Value) {
	p.mu.Lock()
	heap.Push(&p.h, pqItem{prio, v})
	p.mu.Unlock()
}

// ExtractMin removes and returns the minimum-priority element.
func (p *PQueue) ExtractMin() (core.Value, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.h) == 0 {
		return nil, false
	}
	return heap.Pop(&p.h).(pqItem).val, true
}

// PeekMin returns the minimum-priority element without removing it.
func (p *PQueue) PeekMin() (core.Value, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.h) == 0 {
		return nil, false
	}
	return p.h[0].val, true
}

// Size returns the element count.
func (p *PQueue) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.h)
}

// List is a linearizable growable list.
type List struct {
	mu   sync.RWMutex
	vals []core.Value
}

// NewList creates an empty list.
func NewList() *List { return &List{} }

// Append adds v at the end and returns its index.
func (l *List) Append(v core.Value) int {
	l.mu.Lock()
	l.vals = append(l.vals, v)
	i := len(l.vals) - 1
	l.mu.Unlock()
	return i
}

// Get returns the element at index i (nil when out of range).
func (l *List) Get(i int) core.Value {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if i < 0 || i >= len(l.vals) {
		return nil
	}
	return l.vals[i]
}

// Set writes the element at index i; it reports whether i was in range.
func (l *List) Set(i int, v core.Value) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.vals) {
		return false
	}
	l.vals[i] = v
	return true
}

// Size returns the element count.
func (l *List) Size() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.vals)
}
