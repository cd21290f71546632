package gossip

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/modules/plan"
)

// TestLookupVariantsAgree: the optimistic Lookup and the pessimistic
// baseline answer identically across membership churn, and the
// uncontended optimistic path actually commits lock-free.
func TestLookupVariantsAgree(t *testing.T) {
	r := NewOurs(0, plan.Options{})
	r.Register("g", "alice", NewConn("alice", 0))
	r.Register("g", "bob", NewConn("bob", 0))

	cases := []struct {
		group, member string
		want          bool
	}{
		{"g", "alice", true},
		{"g", "bob", true},
		{"g", "carol", false},
		{"nope", "alice", false},
	}
	for _, c := range cases {
		if got := r.Lookup(c.group, c.member); got != c.want {
			t.Errorf("Lookup(%q,%q) = %v, want %v", c.group, c.member, got, c.want)
		}
		if got := r.LookupPessimistic(c.group, c.member); got != c.want {
			t.Errorf("LookupPessimistic(%q,%q) = %v, want %v", c.group, c.member, got, c.want)
		}
	}
	r.Unregister("g", "alice")
	if r.Lookup("g", "alice") {
		t.Error("Lookup sees alice after unregister")
	}
	if st := r.groupsSem.Stats(); st.OptimisticHits == 0 {
		t.Errorf("uncontended lookups never committed optimistically: %+v", st)
	}
}

// TestLookupConcurrentChurn races optimistic lookups against
// register/unregister churn: answers must always be booleans computed
// from a validated window (exercised under -race via the package's
// race-enabled CI lane), and lookups of members outside the churn set
// must stay true throughout.
func TestLookupConcurrentChurn(t *testing.T) {
	r := NewOurs(0, plan.Options{})
	r.Register("g", "stable", NewConn("stable", 0))

	const workers, iters = 4, 400
	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := NewConn("churn", 0)
		for i := 0; i < iters; i++ {
			r.Register("g", "churn", c)
			r.Unregister("g", "churn")
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if !r.Lookup("g", "stable") {
					errCh <- fmt.Errorf("stable member vanished from a validated lookup")
					return
				}
				r.Lookup("g", "churn") // either answer is valid mid-churn
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := r.groupsSem.Stats()
	if st.OptimisticHits+st.OptimisticRetries == 0 {
		t.Errorf("no optimistic attempts recorded under churn: %+v", st)
	}
}

// TestLookupFallsBack: while a conflicting mode is held on the groups
// map, LookupV is refused at its first observation, takes the
// pessimistic body — which waits for the holder — and answers
// correctly; the refusal is counted and no hit is.
func TestLookupFallsBack(t *testing.T) {
	r := NewOurs(0, plan.Options{})
	r.Register("g", "alice", NewConn("alice", 0))
	g, alice := core.Value("g"), core.Value("alice")
	before := r.groupsSem.Stats()

	holder := core.NewTxn()
	holder.Lock(r.groupsSem, r.regGroupsRef.Mode1(g), r.groupsRank)
	found := make(chan bool)
	go func() { found <- r.LookupV(g, alice) }()
	for r.groupsSem.Stats().OptimisticRefusals == before.OptimisticRefusals {
		runtime.Gosched() // until the lookup's observation has been turned away
	}
	holder.UnlockAll()
	if !<-found {
		t.Error("LookupV through the fallback missed a registered member")
	}
	after := r.groupsSem.Stats()
	if after.OptimisticRefusals != before.OptimisticRefusals+1 || after.OptimisticHits != before.OptimisticHits {
		t.Errorf("refusals %d -> %d, hits %d -> %d; want +1 and unchanged",
			before.OptimisticRefusals, after.OptimisticRefusals, before.OptimisticHits, after.OptimisticHits)
	}
}
