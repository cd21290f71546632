package rangestore

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
)

func TestPointOps(t *testing.T) {
	s := New(4, 64)
	s.Put(3, "x")
	if got := s.Get(3); got != "x" {
		t.Errorf("Get(3) = %v, want x", got)
	}
	if got := s.GetPessimistic(3); got != "x" {
		t.Errorf("GetPessimistic(3) = %v, want x", got)
	}
	if got := s.Get(4); got != nil {
		t.Errorf("Get(4) = %v, want nil", got)
	}
	if st := s.shardOf(3).sem.Stats(); st.OptimisticHits == 0 {
		t.Errorf("uncontended Get never committed optimistically: %+v", st)
	}
}

func TestPairToggle(t *testing.T) {
	s := New(4, 64)
	s.PutPair(5)
	if n := s.Scan(); n != 2 {
		t.Errorf("Scan after one PutPair = %d, want 2", n)
	}
	if s.Get(5) == nil || s.Get(s.Partner(5)) == nil {
		t.Error("pair halves missing after insert toggle")
	}
	s.PutPair(5)
	if n := s.ScanPessimistic(); n != 0 {
		t.Errorf("Scan after toggle-off = %d, want 0", n)
	}
}

// TestScanOracle hammers optimistic scans against concurrent pair
// toggles: PutPair keeps the count even in every serial state, so a
// validated scan returning an odd count means version validation let a
// torn pair write through.
func TestScanOracle(t *testing.T) {
	s := New(8, 256)
	const writers, scanners, iters = 2, 4, 500
	var wg sync.WaitGroup
	torn := make(chan int, scanners)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.PutPair((w*31 + i*7) % (s.capacity / 2))
			}
		}(w)
	}
	for r := 0; r < scanners; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if n := s.Scan(); n%2 != 0 {
					torn <- n
					return
				}
			}
		}()
	}
	wg.Wait()
	close(torn)
	for n := range torn {
		t.Fatalf("validated scan returned odd count %d: torn pair write escaped validation", n)
	}
	var hits, retries uint64
	for _, sem := range s.Sems() {
		st := sem.Stats()
		hits += st.OptimisticHits
		retries += st.OptimisticRetries
	}
	if hits+retries == 0 {
		t.Error("no optimistic attempts recorded during the hammer")
	}
}

// TestPointOpAllocs: a point operation boxes its int key once, for the
// selector and the map alike. A read keeps that box on its own stack —
// nothing it calls retains the key — so only Put, whose key the map
// stores, allocates. (Keys below 256 box for free; the probe key is
// above that.)
func TestPointOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation heap-allocates stack closures; the pins hold on the normal build")
	}
	s := New(8, 4096)
	var stored core.Value = 1
	s.Put(3000, stored)
	if n := testing.AllocsPerRun(2000, func() { s.Get(3000) }); n > 0 {
		t.Errorf("Get allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { s.GetPessimistic(3000) }); n > 0 {
		t.Errorf("GetPessimistic allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { s.Scan() }); n > 0 {
		t.Errorf("Scan allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { s.Put(3000, stored) }); n > 1 {
		t.Errorf("Put allocs/op = %v, want <= 1", n)
	}
}

// TestShardOfMatchesDivision: the shift and the single division pick the
// shard the plain arithmetic does, for every key in and around the key
// space, negative ones included (they wrap like any other out-of-range
// key).
func TestShardOfMatchesDivision(t *testing.T) {
	for _, c := range []struct{ shards, capacity int }{
		{8, 4096}, // width 512: shift
		{8, 256},  // width 32: shift
		{4, 64},   // width 16: shift
		{1, 16},   // one shard
		{7, 700},  // width 100: division
		{3, 10},   // capacity rounds up to 12, width 4: shift
		{5, 33},   // capacity rounds up to 35, width 7: division
	} {
		s := New(c.shards, c.capacity)
		capacity, width := s.capacity, s.capacity/c.shards
		for k := -2 * capacity; k < 2*capacity; k++ {
			want := ((k%capacity + capacity) % capacity) / width
			if got := s.shardOf(k); got != &s.shards[want] {
				t.Fatalf("New(%d, %d): shardOf(%d) is not shard %d", c.shards, c.capacity, k, want)
			}
		}
	}
}

// TestNegativeKeyDoesNotPanic: a negative key wraps into the key space
// like any other out-of-range key. (The remainder of a negative k is
// negative: without normalising it, Get(-513) indexes shard -1.)
func TestNegativeKeyDoesNotPanic(t *testing.T) {
	s := New(8, 4096)
	if got := s.Get(-513); got != nil {
		t.Errorf("Get(-513) = %v on an empty store, want nil", got)
	}
	s.Put(-1, "x")
	if got := s.Get(-1); got != "x" {
		t.Errorf("Get(-1) = %v, want x", got)
	}
	if s.shardOf(-1) != s.shardOf(s.capacity-1) {
		t.Error("key -1 is not in the shard of the key it wraps to")
	}
}

// TestGetFallsBack: while a conflicting mode is held, Get is refused at
// its observation, takes the pessimistic body — which waits for the
// holder — and returns the right answer; the refusal is counted and no
// hit is.
func TestGetFallsBack(t *testing.T) {
	s := New(4, 64)
	s.Put(3, "x")
	sh := s.shardOf(3)
	before := sh.sem.Stats()

	holder := core.NewTxn()
	holder.Lock(sh.sem, s.writeRef.Mode1(core.Value(3)), 0)
	got := make(chan core.Value)
	go func() { got <- s.Get(3) }()
	for sh.sem.Stats().OptimisticRefusals == before.OptimisticRefusals {
		runtime.Gosched() // until Get's observation has been turned away
	}
	holder.UnlockAll()
	if v := <-got; v != "x" {
		t.Errorf("Get(3) through the fallback = %v, want x", v)
	}
	after := sh.sem.Stats()
	if after.OptimisticRefusals != before.OptimisticRefusals+1 || after.OptimisticHits != before.OptimisticHits {
		t.Errorf("refusals %d -> %d, hits %d -> %d; want +1 and unchanged",
			before.OptimisticRefusals, after.OptimisticRefusals, before.OptimisticHits, after.OptimisticHits)
	}
}

// TestBareReadHammer races the transaction-free reads against every
// writer, laid out like the rangestore-scan workload: the store starts
// full; PutPair toggles pairs in the first quarter of each half, Put
// overwrites keys outside it. So every Scan is even, and a Get of a key
// no PutPair touches finds it. Under -race this is also the check that
// a bare Snapshot's reads are ordered against the writers' sections.
func TestBareReadHammer(t *testing.T) {
	s := New(8, 256)
	half, toggled := s.capacity/2, s.capacity/4
	for k := 0; k < half; k++ {
		s.PutPair(k)
	}
	stable := func(i int) int { return toggled + i%(half-toggled) + (i&1)*half }
	const writers, readers, iters = 2, 4, 1500

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var stored core.Value = w
			for i := 0; i < iters; i++ {
				s.PutPair((w*31 + i*7) % toggled)
				s.Put(stable(w*17+i), stored)
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if n := s.Scan(); n%2 != 0 {
					t.Errorf("Scan returned odd count %d: a torn pair write escaped validation", n)
					return
				}
				if k := stable(r*13 + i); s.Get(k) == nil {
					t.Errorf("Get(%d) of a never-removed key found nothing", k)
					return
				}
			}
		}()
	}
	wg.Wait()
	var hits uint64
	for _, sem := range s.Sems() {
		hits += sem.Stats().OptimisticHits
	}
	if hits == 0 {
		t.Error("no read committed on the bare path during the hammer")
	}
}
