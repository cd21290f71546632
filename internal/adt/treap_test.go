package adt

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestTreapBasics(t *testing.T) {
	tr := NewTreap()
	if tr.Get(1) != nil || tr.Size() != 0 {
		t.Fatal("fresh treap not empty")
	}
	if old := tr.Put(1, "a"); old != nil {
		t.Error("put on absent returned value")
	}
	if old := tr.Put(1, "b"); old != "a" {
		t.Errorf("put returned %v", old)
	}
	if tr.Get(1) != "b" || tr.Size() != 1 {
		t.Error("state wrong")
	}
	if got := tr.Remove(1); got != "b" {
		t.Errorf("remove returned %v", got)
	}
	if tr.Remove(1) != nil || tr.Size() != 0 {
		t.Error("double remove wrong")
	}
}

// TestTreapModel: random op sequences agree with a sorted-map model.
func TestTreapModel(t *testing.T) {
	f := func(ops []int16) bool {
		tr := NewTreap()
		ref := map[int64]int{}
		for i, o := range ops {
			k := int64(o % 31)
			switch i % 3 {
			case 0:
				got := tr.Put(k, i)
				want, had := ref[k]
				if had && got != want || !had && got != nil {
					return false
				}
				ref[k] = i
			case 1:
				got := tr.Get(k)
				want, had := ref[k]
				if had && got != want || !had && got != nil {
					return false
				}
			default:
				got := tr.Remove(k)
				want, had := ref[k]
				if had && got != want || !had && got != nil {
					return false
				}
				delete(ref, k)
			}
			if tr.Size() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestTreapRange(t *testing.T) {
	tr := NewTreap()
	keys := []int64{5, 1, 9, 3, 7, 20, 15}
	for _, k := range keys {
		tr.Put(k, k)
	}
	if got := tr.RangeCount(3, 9); got != 4 { // 3,5,7,9
		t.Errorf("RangeCount(3,9) = %d", got)
	}
	if got := tr.RangeCount(100, 200); got != 0 {
		t.Errorf("empty range = %d", got)
	}
}

// TestTreapRandomRange cross-checks range queries against sorting.
func TestTreapRandomRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewTreap()
	present := map[int64]bool{}
	for i := 0; i < 500; i++ {
		k := int64(rng.Intn(200))
		tr.Put(k, k)
		present[k] = true
	}
	for trial := 0; trial < 50; trial++ {
		lo := int64(rng.Intn(200))
		hi := lo + int64(rng.Intn(60))
		want := 0
		for k := range present {
			if k >= lo && k <= hi {
				want++
			}
		}
		if got := tr.RangeCount(lo, hi); got != want {
			t.Fatalf("RangeCount(%d,%d) = %d, want %d", lo, hi, got, want)
		}
	}
}

func TestTreapConcurrent(t *testing.T) {
	tr := NewTreap()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := int64(g * 10000)
			for i := int64(0); i < 500; i++ {
				tr.Put(base+i, i)
				if tr.Get(base+i) != i {
					t.Errorf("lost key %d", base+i)
					return
				}
				if i%5 == 0 {
					tr.Remove(base + i)
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.Size() != 4*400 {
		t.Errorf("size = %d, want %d", tr.Size(), 4*400)
	}
}
