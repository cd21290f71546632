package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the one acquisition core (mechV2.acquireSlow): every shape
// of scan — one mode, a batch inside one mechanism, a batch spanning two
// — crossed with both ways a parked acquisition can end — woken by a
// release, or out of patience — with summary counters on and off. The
// batch × timeout cells have no other entry point; the rest pin that
// the merged loop kept each family's contract.

// twinSpec is two independent maps in one ADT: putL/sizeL and putR/sizeR
// behave like mapSpec's put/size, and every L method commutes with every
// R method, so the class compiles into two mechanisms and one instance
// can be asked for a batch that spans both.
func twinSpec() *Spec {
	s := NewSpec("Twin",
		MethodSig{"putL", 1}, MethodSig{"sizeL", 0},
		MethodSig{"putR", 1}, MethodSig{"sizeR", 0},
	)
	for _, side := range []string{"L", "R"} {
		s.Commute("put"+side, "put"+side, ArgsNE(0, 0))
		s.Commute("put"+side, "size"+side, Never)
		s.Commute("size"+side, "size"+side, Always)
	}
	for _, l := range []string{"putL", "sizeL"} {
		for _, r := range []string{"putR", "sizeR"} {
			s.Commute(l, r, Always)
		}
	}
	return s
}

type twinTable struct {
	tbl *ModeTable
}

// newTwinTable compiles twinSpec over n buckets per side. With n past
// summaryCutoffSlots each size mode's mask is wide enough that its
// mechanism maintains summary counters; below it scans are exact.
func newTwinTable(t *testing.T, n int, wantSummary bool) twinTable {
	t.Helper()
	tbl := NewModeTable(twinSpec(), []SymSet{
		SymSetOf(SymOpOf("putL", VarArg("k"))), SymSetOf(SymOpOf("sizeL")),
		SymSetOf(SymOpOf("putR", VarArg("k"))), SymSetOf(SymOpOf("sizeR")),
	}, TableOptions{Phi: NewPhi(n)})
	tw := twinTable{tbl}
	pl, pr := tbl.part[tw.size("L")], tbl.part[tw.size("R")]
	if pl < 0 || pr < 0 || pl == pr {
		t.Fatalf("test premise: L and R must compile into two mechanisms, got %d and %d", pl, pr)
	}
	if tbl.summaryOn[pl] != wantSummary || tbl.summaryOn[pr] != wantSummary {
		t.Fatalf("test premise: summaries on = %v/%v, want %v", tbl.summaryOn[pl], tbl.summaryOn[pr], wantSummary)
	}
	return tw
}

func (tw twinTable) put(side string, k int) ModeID {
	return tw.tbl.Set(SymSetOf(SymOpOf("put"+side, VarArg("k")))).Mode(k)
}

func (tw twinTable) size(side string) ModeID {
	return tw.tbl.Set(SymSetOf(SymOpOf("size" + side))).Mode()
}

// coreShape is one scan shape: the modes the acquirer asks for in one
// acquireBatch call, the mode a conflicting holder pins first, and the
// LockStats.Batches the call must add (one per mechanism group of two
// or more modes).
type coreShape struct {
	name    string
	modes   func(twinTable) []ModeID
	blocker func(twinTable) ModeID
	batches uint64
}

var coreShapes = []coreShape{
	{"single",
		func(tw twinTable) []ModeID { return []ModeID{tw.put("L", 1)} },
		func(tw twinTable) ModeID { return tw.size("L") }, 0},
	{"same-mechanism",
		func(tw twinTable) []ModeID { return []ModeID{tw.put("L", 1), tw.put("L", 2)} },
		func(tw twinTable) ModeID { return tw.size("L") }, 1},
	// The L group is acquired before the R group parks, so a failed call
	// must also give the L group back.
	{"cross-mechanism",
		func(tw twinTable) []ModeID {
			return []ModeID{tw.put("L", 1), tw.put("R", 1), tw.put("L", 2), tw.put("R", 2)}
		},
		func(tw twinTable) ModeID { return tw.size("R") }, 2},
}

// coreTables are the two scan flavours every case runs under.
var coreTables = []struct {
	name    string
	n       int
	summary bool
}{{"exact", 4, false}, {"summary", 64, true}}

// waitParked waits until the instance has recorded waits sleeps: the
// acquirers under test are parked.
func waitParked(t *testing.T, s *Semantic, waits uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Waits < waits {
		if time.Now().After(deadline) {
			t.Fatalf("acquirer never parked: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAcquireCoreTable(t *testing.T) {
	for _, tc := range coreTables {
		for _, shape := range coreShapes {
			for _, ending := range []string{"blocking", "timeout"} {
				t.Run(tc.name+"/"+shape.name+"/"+ending, func(t *testing.T) {
					tw := newTwinTable(t, tc.n, tc.summary)
					s := NewSemantic(tw.tbl)
					modes, blocker := shape.modes(tw), shape.blocker(tw)
					baseline := WaitersOutstanding()
					s.Acquire(blocker)
					v0 := s.Version(blocker)

					patience := Forever
					if ending == "timeout" {
						patience = 30 * time.Millisecond
					}
					done := make(chan error, 1)
					go func() { done <- s.acquireBatch(modes, patience, nil) }()
					waitParked(t, s, 1)

					if ending == "blocking" {
						select {
						case err := <-done:
							t.Fatalf("acquired against a conflicting holder: %v", err)
						case <-time.After(20 * time.Millisecond):
						}
						s.Release(blocker)
					}
					var err error
					select {
					case err = <-done:
					case <-time.After(10 * time.Second):
						t.Fatal("acquirer never returned")
					}

					st := s.Stats()
					var stall *StallError
					switch ending {
					case "blocking":
						if err != nil {
							t.Fatalf("blocking acquisition failed: %v", err)
						}
						for _, m := range modes {
							if s.Holders(m) != 1 {
								t.Errorf("mode %d: %d holders after acquisition, want 1", m, s.Holders(m))
							}
						}
						// One bump per mechanism group, however many
						// claim-and-retreat rounds preceded it.
						if got := s.Version(blocker); got != v0+1 {
							t.Errorf("version %d -> %d, want one bump for one acquisition", v0, got)
						}
						for _, m := range modes {
							s.Release(m)
						}
					case "timeout":
						if !errors.As(err, &stall) {
							t.Fatalf("want *StallError, got %v", err)
						}
						if len(stall.Holders) == 0 || stall.Holders[0].Mode != tw.tbl.modeNameOfSlot(tw.tbl.part[blocker], tw.tbl.localIdx[blocker]) {
							t.Errorf("stall does not name the holder observed at give-up: %+v", stall.Holders)
						}
						if stall.Waited < patience {
							t.Errorf("Waited = %v, below patience %v", stall.Waited, patience)
						}
					}
					if ending != "blocking" {
						for _, m := range modes {
							if s.Holders(m) != 0 {
								t.Errorf("mode %d: failed call left %d holders", m, s.Holders(m))
							}
						}
						if got := s.Version(blocker); got != v0 {
							t.Errorf("version %d -> %d: a retreat must not bump", v0, got)
						}
						s.Release(blocker)
					}
					wantStalls := uint64(0)
					if ending == "timeout" {
						wantStalls = 1
					}
					if st.Batches != shape.batches || st.Stalls != wantStalls {
						t.Errorf("stats %+v, want Batches %d Stalls %d", st, shape.batches, wantStalls)
					}
					if err := s.CheckQuiesced(); err != nil {
						t.Error(err)
					}
					if d := WaitersOutstanding() - baseline; d != 0 {
						t.Errorf("WaitersOutstanding moved by %d", d)
					}
				})
			}
		}
	}
}

// TestLockBatchWithinKeepsEarlierGroups: the transaction-level contract
// of a timed-out fused prologue — the instance group that stalled leaves
// no recorded hold (including the mechanism group of it that had been
// acquired), the instance groups before it stay held for the epilogue,
// and the error carries the transaction's log.
func TestLockBatchWithinKeepsEarlierGroups(t *testing.T) {
	tw := newTwinTable(t, 4, false)
	first, second := NewSemantic(tw.tbl), NewSemantic(tw.tbl)
	second.Acquire(tw.size("R"))

	tx := NewCheckedTxn()
	err := tx.LockBatchWithin(10*time.Millisecond,
		BatchLock{Sem: first, Mode: tw.put("L", 1), Rank: 0},
		BatchLock{Sem: second, Mode: tw.put("L", 1), Rank: 1},
		BatchLock{Sem: second, Mode: tw.put("R", 1), Rank: 1},
	)
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *StallError, got %v", err)
	}
	if len(stall.Log) != 1 || stall.Log[0].ID != first.ID() {
		t.Errorf("stall log = %+v, want the earlier group's acquisition", stall.Log)
	}
	if tx.HeldCount() != 1 || !tx.Holds(first) || tx.Holds(second) {
		t.Errorf("held after the stall: count %d, first %v, second %v", tx.HeldCount(), tx.Holds(first), tx.Holds(second))
	}
	if h := second.Holders(tw.put("L", 1)); h != 0 {
		t.Errorf("stalled instance kept %d holder(s) of its acquired mechanism group", h)
	}
	second.Release(tw.size("R"))
	// The same transaction may finish the prologue once the conflict is
	// gone: nothing of the failed attempt is in its way.
	if err := tx.LockBatchWithin(time.Second,
		BatchLock{Sem: second, Mode: tw.put("L", 1), Rank: 1},
		BatchLock{Sem: second, Mode: tw.put("R", 1), Rank: 1},
	); err != nil {
		t.Fatalf("retry after release: %v", err)
	}
	if tx.HeldCount() != 3 {
		t.Errorf("HeldCount = %d after the retry, want 3", tx.HeldCount())
	}
	tx.UnlockAll()
	for _, s := range []*Semantic{first, second} {
		if err := s.CheckQuiesced(); err != nil {
			t.Error(err)
		}
	}
}

// TestAcquireGroupsOpposedOrders: two sections name the same two
// mechanisms of ONE instance in opposite orders with pairwise-conflicting
// modes, and both complete. The schedule is forced, not raced: a helper
// hold parks the first section on its R group with its L group held, the
// second section then starts, and the helper leaves. Taking groups in
// argument order, the second section took R (which the helper's mode
// lets in) and parked on L — each then held the group the other waited
// for, until patience ran out. In ascending mechanism order the second
// section parks on L holding nothing.
func TestAcquireGroupsOpposedOrders(t *testing.T) {
	tw := newTwinTable(t, 4, false)
	s := NewSemantic(tw.tbl)
	helper := tw.put("R", 2) // blocks sizeR, commutes with putR(1)
	s.Acquire(helper)

	const patience = 3 * time.Second
	section := func(locks ...BatchLock) chan error {
		done := make(chan error, 1)
		go func() {
			tx := NewTxn()
			err := tx.LockBatchWithin(patience, locks...)
			tx.UnlockAll()
			done <- err
		}()
		return done
	}
	first := section(
		BatchLock{Sem: s, Mode: tw.size("L")},
		BatchLock{Sem: s, Mode: tw.size("R")})
	waitParked(t, s, 1)
	if s.Holders(tw.size("L")) != 1 {
		t.Fatal("test premise: the first section parks on R holding its L group")
	}
	second := section(
		BatchLock{Sem: s, Mode: tw.put("R", 1)},
		BatchLock{Sem: s, Mode: tw.put("L", 1)})
	waitParked(t, s, 2)
	s.Release(helper)

	for name, done := range map[string]chan error{"L-then-R": first, "R-then-L": second} {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s section: %v", name, err)
			}
		case <-time.After(4 * patience):
			t.Fatalf("%s section never returned", name)
		}
	}
	if err := s.CheckQuiesced(); err != nil {
		t.Error(err)
	}
}

// TestWithdrawRedonatesToken: a wake token that lands on a waiter
// already on its way out is forwarded, so a second waiter on an
// overlapping mask acquires without any further release. The orphan is
// built by hand and deterministically: the test holds the mechanism's
// lock across the leaving waiter's deadline, so its timer is the only
// arm its select can take and it queues on mu; then it drops one holder
// without the wake a Release would send and leaves the only token with
// the waiter that is leaving. A second holder keeps that waiter's final
// claim-and-scan failing, so it withdraws rather than acquires.
func TestWithdrawRedonatesToken(t *testing.T) {
	tw := newTwinTable(t, 4, false)
	// The leaving waiter wants size (conflicts with both puts); the one
	// that stays wants put(1) (conflicts with put(1) and size). Their
	// masks overlap on put(1)'s slot.
	leave, want := tw.size("L"), tw.put("L", 1)
	hold1, hold2 := tw.put("L", 1), tw.put("L", 2)
	s := NewSemantic(tw.tbl)
	mech := &s.mechs[tw.tbl.part[leave]]
	// No lock-free attempts: their retreats send wake tokens of their
	// own, and the only token in play must be the one planted below.
	s.disableFastPath = true
	s.Acquire(hold1)
	s.Acquire(hold2)
	leaving := []Acquisition{{ID: 1 << 40}} // marks the waiter that will withdraw
	const patience = 20 * time.Millisecond
	stalled := make(chan error, 1)
	go func() { stalled <- s.acquireWithin(leave, patience, leaving) }()
	stays := make(chan struct{})
	go func() { s.Acquire(want); close(stays) }()
	waitParked(t, s, 2)

	mech.mu.Lock()
	time.Sleep(patience + 30*time.Millisecond) // the leaving waiter's timer fires; it queues on mu
	mech.retreat(int32(tw.tbl.localIdx[hold1]))
	planted := false
	for _, w := range mech.waiters {
		if len(w.log) == 1 && w.log[0].ID == leaving[0].ID {
			select {
			case w.ch <- struct{}{}:
				planted = true
			default:
			}
		}
	}
	mech.mu.Unlock()
	if !planted {
		t.Fatal("test premise: the leaving waiter is registered with an empty channel")
	}

	var stall *StallError
	if err := <-stalled; !errors.As(err, &stall) {
		t.Fatalf("leaving waiter: want *StallError, got %v", err)
	}
	select {
	case <-stays:
	case <-time.After(5 * time.Second):
		t.Fatal("orphaned wake token was not re-donated: the remaining waiter is stranded")
	}
	s.Release(want)
	s.Release(hold2)
	if err := s.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
}

// TestAcquireCoreHammer races every shape and every ending against each
// other and checks the one thing the mechanism exists for: modes that do
// not commute are never held together. Run under -race.
func TestAcquireCoreHammer(t *testing.T) {
	for _, tc := range coreTables {
		t.Run(tc.name, func(t *testing.T) {
			tw := newTwinTable(t, tc.n, tc.summary)
			s := NewSemantic(tw.tbl)
			baseline := WaitersOutstanding()
			const keys = 3
			// Occupancy per side: holders of size, and holders of put per
			// key. put excludes size and a second put of the same key.
			type side struct {
				sizes atomic.Int32
				puts  [keys]atomic.Int32
			}
			var occ [2]side
			var violations atomic.Int32
			sides := [2]string{"L", "R"}

			iters := 400
			if testing.Short() {
				iters = 100
			}
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < iters; i++ {
						// pick is (side, key); key < 0 names the size mode.
						type pick struct{ side, key int }
						var picks []pick
						k := rng.Intn(keys)
						switch rng.Intn(6) {
						case 0:
							picks = []pick{{rng.Intn(2), k}}
						case 1:
							sd := rng.Intn(2)
							picks = []pick{{sd, k}, {sd, (k + 1) % keys}}
						case 2:
							picks = []pick{{0, k}, {1, k}, {0, (k + 1) % keys}, {1, (k + 1) % keys}}
						case 3:
							picks = []pick{{rng.Intn(2), -1}}
						case 4:
							picks = []pick{{0, -1}, {1, -1}}
						default:
							picks = []pick{{0, k}, {1, -1}}
						}
						modes := make([]ModeID, len(picks))
						for j, p := range picks {
							if p.key < 0 {
								modes[j] = tw.size(sides[p.side])
							} else {
								modes[j] = tw.put(sides[p.side], p.key)
							}
						}
						patience := Forever
						if rng.Intn(2) == 1 {
							patience = time.Duration(rng.Intn(300)) * time.Microsecond
						}
						if s.acquireBatch(modes, patience, nil) != nil {
							continue
						}
						for _, p := range picks {
							o := &occ[p.side]
							if p.key < 0 {
								o.sizes.Add(1)
								for j := range o.puts {
									if o.puts[j].Load() != 0 {
										violations.Add(1)
									}
								}
							} else if o.puts[p.key].Add(1) != 1 || o.sizes.Load() != 0 {
								violations.Add(1)
							}
						}
						if i%8 == 0 {
							time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
						}
						for _, p := range picks {
							if p.key < 0 {
								occ[p.side].sizes.Add(-1)
							} else {
								occ[p.side].puts[p.key].Add(-1)
							}
						}
						for _, m := range modes {
							s.Release(m)
						}
					}
				}(int64(g))
			}
			wg.Wait()
			if v := violations.Load(); v != 0 {
				t.Errorf("%d time(s) non-commuting modes were held together", v)
			}
			if err := s.CheckQuiesced(); err != nil {
				t.Error(err)
			}
			if d := WaitersOutstanding() - baseline; d != 0 {
				t.Errorf("WaitersOutstanding moved by %d", d)
			}
		})
	}
}
