package adt

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestHashMapBasics(t *testing.T) {
	m := NewHashMap()
	if m.Get("k") != nil || m.Size() != 0 || m.ContainsKey("k") {
		t.Fatal("fresh map not empty")
	}
	if old := m.Put("k", 1); old != nil {
		t.Errorf("Put on absent key returned %v", old)
	}
	if old := m.Put("k", 2); old != 1 {
		t.Errorf("Put returned %v, want 1", old)
	}
	if m.Get("k") != 2 || m.Size() != 1 || !m.ContainsKey("k") {
		t.Error("map state wrong after puts")
	}
	if got := m.PutIfAbsent("k", 9); got != 2 {
		t.Errorf("PutIfAbsent on present key returned %v", got)
	}
	if got := m.PutIfAbsent("j", 7); got != nil {
		t.Errorf("PutIfAbsent on absent key returned %v", got)
	}
	if m.Get("j") != 7 || m.Size() != 2 {
		t.Error("putIfAbsent state wrong")
	}
	if got := m.Remove("k"); got != 2 {
		t.Errorf("Remove returned %v", got)
	}
	if got := m.Remove("k"); got != nil {
		t.Errorf("double Remove returned %v", got)
	}
	m.Clear()
	if m.Size() != 0 || m.ContainsKey("j") {
		t.Error("Clear incomplete")
	}
}

// TestHashMapModel: random op sequences agree with Go's built-in map.
func TestHashMapModel(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewHashMap()
		ref := make(map[int]int)
		for _, o := range ops {
			k := int(o % 13)
			v := int(o >> 4)
			switch (o >> 2) % 3 {
			case 0:
				got := m.Put(k, v)
				want, had := ref[k]
				if had && got != want || !had && got != nil {
					return false
				}
				ref[k] = v
			case 1:
				got := m.Remove(k)
				want, had := ref[k]
				if had && got != want || !had && got != nil {
					return false
				}
				delete(ref, k)
			case 2:
				got := m.Get(k)
				want, had := ref[k]
				if had && got != want || !had && got != nil {
					return false
				}
			}
			if m.Size() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHashMapRange(t *testing.T) {
	m := NewHashMap()
	for i := 0; i < 100; i++ {
		m.Put(i, i*i)
	}
	seen := 0
	m.each(func(k, v any) bool {
		if v != k.(int)*k.(int) {
			t.Errorf("each saw %v→%v", k, v)
		}
		seen++
		return true
	})
	if seen != 100 {
		t.Errorf("each visited %d, want 100", seen)
	}
	// Early stop.
	n := 0
	m.each(func(k, v any) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("each early stop visited %d", n)
	}
}

func TestHashMapConcurrent(t *testing.T) {
	m := NewHashMap()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := g*1000 + i
				m.Put(k, k)
				if m.Get(k) != k {
					t.Errorf("lost update for %d", k)
					return
				}
				if i%3 == 0 {
					m.Remove(k)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestHashSetBasics(t *testing.T) {
	s := NewHashSet()
	s.Add(1)
	s.Add(1)
	s.Add(2)
	if s.Size() != 2 || !s.Contains(1) || !s.Contains(2) || s.Contains(3) {
		t.Error("set state wrong")
	}
	s.Remove(1)
	s.Remove(1)
	if s.Size() != 1 || s.Contains(1) {
		t.Error("remove wrong")
	}
	count := 0
	s.each(func(v any, _ struct{}) bool { count++; return true })
	if count != 1 {
		t.Errorf("each visited %d", count)
	}
	s.Clear()
	if s.Size() != 0 {
		t.Error("clear wrong")
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue()
	if !q.IsEmpty() || q.Size() != 0 {
		t.Fatal("fresh queue not empty")
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue on empty succeeded")
	}
	for i := 0; i < 100; i++ {
		q.Enqueue(i)
	}
	if q.Size() != 100 || q.IsEmpty() {
		t.Error("size wrong")
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d returned %v,%v", i, v, ok)
		}
	}
	if !q.IsEmpty() {
		t.Error("not empty after drain")
	}
}

// TestQueueGrowWrap exercises ring growth with a wrapped head.
func TestQueueGrowWrap(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 12; i++ {
		q.Enqueue(i)
	}
	for i := 0; i < 10; i++ {
		q.Dequeue()
	}
	for i := 100; i < 140; i++ { // forces growth while head > 0
		q.Enqueue(i)
	}
	want := []int{10, 11}
	for i := 100; i < 140; i++ {
		want = append(want, i)
	}
	for _, w := range want {
		v, ok := q.Dequeue()
		if !ok || v != w {
			t.Fatalf("got %v,%v want %d", v, ok, w)
		}
	}
}

func TestQueueConcurrentDrain(t *testing.T) {
	q := NewQueue()
	const total = 4000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				q.Enqueue(g*10000 + i)
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[any]bool)
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("duplicate element %v", v)
		}
		seen[v] = true
	}
	if len(seen) != total {
		t.Errorf("drained %d, want %d", len(seen), total)
	}
}

func TestMultimap(t *testing.T) {
	mm := NewMultimap()
	if !mm.Put("a", 1) || !mm.Put("a", 2) || mm.Put("a", 1) {
		t.Error("Put newness wrong")
	}
	if mm.Size() != 2 || !mm.ContainsEntry("a", 1) || mm.ContainsEntry("a", 3) {
		t.Error("state wrong")
	}
	vs := mm.Get("a")
	if len(vs) != 2 {
		t.Errorf("Get returned %v", vs)
	}
	if !mm.Remove("a", 1) || mm.Remove("a", 1) {
		t.Error("Remove wrong")
	}
	if mm.Size() != 1 {
		t.Error("size after remove wrong")
	}
	mm.Put("b", 9)
	removed := mm.RemoveAll("a")
	if len(removed) != 1 || removed[0] != 2 {
		t.Errorf("RemoveAll returned %v", removed)
	}
	if mm.Size() != 1 || len(mm.Get("a")) != 0 {
		t.Error("RemoveAll state wrong")
	}
}

func TestDeque(t *testing.T) {
	d := NewDeque()
	d.PushBack(2)
	d.PushFront(1)
	d.PushBack(3)
	if d.Size() != 3 {
		t.Fatal("size wrong")
	}
	if v, _ := d.PopFront(); v != 1 {
		t.Errorf("PopFront = %v", v)
	}
	if v, _ := d.PopBack(); v != 3 {
		t.Errorf("PopBack = %v", v)
	}
	if v, _ := d.PopFront(); v != 2 {
		t.Errorf("PopFront = %v", v)
	}
	if _, ok := d.PopBack(); ok {
		t.Error("pop on empty succeeded")
	}
	if _, ok := d.PopFront(); ok {
		t.Error("pop on empty succeeded")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc(2)
				c.Dec(1)
			}
		}()
	}
	wg.Wait()
	if c.Read() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Read())
	}
}

func TestPQueueOrdering(t *testing.T) {
	p := NewPQueue()
	for _, pr := range []int64{5, 1, 4, 1, 9, 0} {
		p.Insert(pr, pr*10)
	}
	if p.Size() != 6 {
		t.Fatal("size wrong")
	}
	if v, ok := p.PeekMin(); !ok || v != int64(0) {
		t.Errorf("PeekMin = %v", v)
	}
	prev := int64(-1)
	for {
		v, ok := p.ExtractMin()
		if !ok {
			break
		}
		if v.(int64) < prev {
			t.Errorf("extracted %v after %v", v, prev)
		}
		prev = v.(int64)
	}
	if _, ok := p.PeekMin(); ok {
		t.Error("peek on empty succeeded")
	}
}

func TestList(t *testing.T) {
	l := NewList()
	if l.Get(0) != nil || l.Size() != 0 {
		t.Fatal("fresh list wrong")
	}
	i0 := l.Append("a")
	i1 := l.Append("b")
	if i0 != 0 || i1 != 1 {
		t.Error("append indices wrong")
	}
	if !l.Set(0, "z") || l.Set(5, "x") {
		t.Error("Set bounds wrong")
	}
	if l.Get(0) != "z" || l.Get(1) != "b" || l.Get(-1) != nil {
		t.Error("Get wrong")
	}
}

// walker is what TestHashMapRangeOccupancy needs of a striped
// container: the map and the set share the stripes and the occupancy
// bitmap, so they share the test.
type walker struct {
	put, remove func(k int)
	each        func(f func(k int))
	clear       func()
	size        func() int
	occupied    func() uint64
	nonEmpty    func() uint64 // bit i set iff stripe i holds a key
}

func nonEmptyStripes[V any](t *striped[V]) uint64 {
	var bits uint64
	for i := range t.stripes {
		if t.stripes[i].n != 0 {
			bits |= 1 << i
		}
	}
	return bits
}

func mapWalker() walker {
	m := NewHashMap()
	return walker{
		put:      func(k int) { m.Put(k, k) },
		remove:   func(k int) { m.Remove(k) },
		each:     func(f func(int)) { m.each(func(k, _ core.Value) bool { f(k.(int)); return true }) },
		clear:    m.Clear,
		size:     m.Size,
		occupied: m.occupied.Load,
		nonEmpty: func() uint64 { return nonEmptyStripes(&m.striped) },
	}
}

func setWalker() walker {
	s := NewHashSet()
	return walker{
		put:      func(k int) { s.Add(k) },
		remove:   func(k int) { s.Remove(k) },
		each:     func(f func(int)) { s.each(func(v core.Value, _ struct{}) bool { f(v.(int)); return true }) },
		clear:    s.Clear,
		size:     s.Size,
		occupied: s.occupied.Load,
		nonEmpty: func() uint64 { return nonEmptyStripes(&s.striped) },
	}
}

// TestHashMapRangeOccupancy: a locking walk (each, under Values)
// visits occupied stripes only, so under concurrent Put/Remove it must
// still never miss a key present for the whole walk and never yield one
// whose removal completed before the walk began; once writers stop, the
// occupancy bitmap names exactly the non-empty stripes. Run under -race.
func TestHashMapRangeOccupancy(t *testing.T) {
	t.Run("map", func(t *testing.T) { testRangeOccupancy(t, mapWalker()) })
	t.Run("set", func(t *testing.T) { testRangeOccupancy(t, setWalker()) })
}

func testRangeOccupancy(t *testing.T, m walker) {
	const stable, churn = 24, 200
	for k := 0; k < stable; k++ {
		m.put(k)
	}
	stop := make(chan struct{})
	var writers, rangers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := stable + (i*4+w)%churn // keys of w's residue class only
				m.put(k)
				m.remove(k)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		rangers.Add(1)
		go func(r int) {
			defer rangers.Done()
			for i := 0; i < 500; i++ {
				gone := stable + churn + r // this ranger's own key
				m.put(gone)
				m.remove(gone)
				seen := 0
				m.each(func(n int) {
					switch {
					case n < stable:
						seen++
					case n == gone:
						t.Errorf("walk yielded key %d, removed before the walk began", n)
					}
				})
				if seen != stable {
					t.Errorf("walk saw %d of the %d keys present throughout", seen, stable)
					return
				}
			}
		}(r)
	}
	rangers.Wait()
	close(stop)
	writers.Wait()

	if got, want := m.occupied(), m.nonEmpty(); got != want {
		t.Errorf("occupied = %#x, non-empty stripes = %#x", got, want)
	}
	n := 0
	m.each(func(int) { n++ })
	if n != stable || m.size() != stable {
		t.Errorf("after churn: walk saw %d, Size %d, want %d", n, m.size(), stable)
	}
	m.clear()
	n = 0
	m.each(func(int) { n++ })
	if m.occupied() != 0 || m.size() != 0 || n != 0 {
		t.Errorf("after Clear: occupied %#x, Size %d, walk saw %d", m.occupied(), m.size(), n)
	}
}
