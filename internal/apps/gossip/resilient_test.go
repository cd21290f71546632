package gossip

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
)

// TestResilientRouterShedsAndRecovers: with a fault injected into the
// register section (a sleep while both locks are held), policy-guarded
// operations against the same group must stall past their patience and
// be dropped — not wedge forever — and once the fault clears, the same
// operations must succeed again.
func TestResilientRouterShedsAndRecovers(t *testing.T) {
	o := NewOurs()
	r := NewResilient(o, resilience.New("gossip", resilience.Config{Patience: time.Millisecond}))

	r.Register("g", "m1", NewConn("m1", 0))

	// Hold the register fault point — both the outer mode for "g" and
	// the member lock — for 40ms on a helper goroutine.
	release := make(chan struct{})
	held := make(chan struct{})
	o.FaultHook = func(site string) {
		if site == "register" {
			close(held)
			<-release
		}
	}
	var faultWG sync.WaitGroup
	faultWG.Add(1)
	go func() {
		defer faultWG.Done()
		o.Register("g", "m2", NewConn("m2", 0)) // blocking variant carries the fault
	}()
	<-held
	o.FaultHook = nil

	// Conflicting policy-guarded writes must be dropped, not wedge.
	var stall *core.StallError
	if err := r.RegisterErrV("g", "m3", NewConn("m3", 0)); err == nil {
		t.Fatal("RegisterErr succeeded against a held conflicting lock")
	} else if !errors.As(err, &stall) {
		t.Fatalf("RegisterErr error lost its type: %v", err)
	}
	r.Register("g", "m4", NewConn("m4", 0))
	if r.Dropped.Load() == 0 {
		t.Fatal("dropped counter untouched by a shed Register")
	}

	close(release)
	faultWG.Wait()

	// Fault cleared: everything flows again.
	if err := r.RegisterErrV("g", "m3", NewConn("m3", 0)); err != nil {
		t.Fatalf("RegisterErr after recovery: %v", err)
	}
	if err := r.UnicastErrV("g", "m1", []byte("x")); err != nil {
		t.Fatalf("UnicastErr after recovery: %v", err)
	}
	found, err := r.LookupErrV("g", "m3")
	if err != nil || !found {
		t.Fatalf("LookupErrV(g, m3) = (%v, %v), want (true, nil)", found, err)
	}
	found, err = r.LookupErrV("g", "nobody")
	if err != nil || found {
		t.Fatalf("LookupErrV(g, nobody) = (%v, %v), want (false, nil)", found, err)
	}
	for _, sem := range o.Sems() {
		if err := sem.CheckQuiesced(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResilientRouterHammer races all four policy-guarded operations
// and policied lookups across groups while a saboteur repeatedly parks on
// the register fault point of one hot group, with the policy's own
// stalls driving a breaker that trips, cools down and probes. Run
// under -race; the invariants are liveness (no wedged goroutine
// survives the hammer), no leaked waiters, and quiesced locks.
func TestResilientRouterHammer(t *testing.T) {
	o := NewOurs()
	p := resilience.New("gossip", resilience.Config{
		Patience: time.Millisecond,
		Breaker: &resilience.BreakerConfig{
			Window:        50 * time.Millisecond,
			Buckets:       4,
			TripStallRate: 100,
			Cooldown:      500 * time.Microsecond,
			Probes:        2,
		},
	})
	r := NewResilient(o, p)
	groups := []string{"hot", "warm", "cold"}
	for _, g := range groups {
		r.Register(g, "seed", NewConn("seed", 0))
	}
	o.FaultHook = func(site string) {
		if site == "register" {
			time.Sleep(200 * time.Microsecond) // slow-hold saboteur window
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ops, lookups atomic.Int64
	wg.Add(1)
	go func() { // saboteur: slow registers on the hot group
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			o.Register("hot", "sab", NewConn("sab", 0))
		}
	}()
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g := groups[i%len(groups)]
				switch i % 4 {
				case 0:
					r.Register(g, "m", NewConn("m", 0))
				case 1:
					r.Unicast(g, "seed", []byte("x"))
				case 2:
					r.Multicast(g, []byte("y"))
				case 3:
					if _, err := r.LookupErrV(g, "seed"); err == nil {
						lookups.Add(1)
					}
				}
				ops.Add(1)
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	o.FaultHook = nil

	if ops.Load() == 0 || lookups.Load() == 0 {
		t.Fatalf("hammer did no work: ops=%d lookups=%d", ops.Load(), lookups.Load())
	}
	t.Logf("ops=%d lookups=%d dropped=%d breaker=%v", ops.Load(), lookups.Load(), r.Dropped.Load(), p.Breaker().Stats().Counters)
	for _, sem := range o.Sems() {
		if err := sem.CheckQuiesced(); err != nil {
			t.Fatal(err)
		}
	}
	if n := core.WaitersOutstanding(); n != 0 {
		t.Fatalf("leaked %d waiter(s)", n)
	}
}

// TestResilientUnicastBatchStalls: the fused batch prologue is bounded
// by the policy's patience. While an Unregister holds the member-map
// mode one of the batch's unicasts conflicts with, UnicastBatchErrV must
// give up with a *core.StallError, send nothing, and leave every lock
// mechanism quiesced — and the same batch must go through once the
// holder is gone.
func TestResilientUnicastBatchStalls(t *testing.T) {
	o := NewOurs()
	r := NewResilient(o, resilience.New("gossip", resilience.Config{Patience: 2 * time.Millisecond}))
	c1, c2 := NewConn("m1", 0), NewConn("m2", 0)
	r.Register("g", "m1", c1)
	r.Register("g", "m2", c2)
	waiters := core.WaitersOutstanding()

	release := make(chan struct{})
	held := make(chan struct{})
	o.FaultHook = func(site string) {
		if site == "unregister" {
			close(held)
			<-release
		}
	}
	unregistered := make(chan struct{})
	go func() {
		defer close(unregistered)
		o.Unregister("g", "m1")
	}()
	<-held
	o.FaultHook = nil

	reqs := []SendReq{{"g", "m1", []byte("x")}, {"g", "m2", []byte("x")}}
	var sc BatchScratch
	err := r.UnicastBatchErrV(reqs, &sc)
	var stall *core.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *core.StallError from the bounded batch prologue, got %v", err)
	}
	if len(stall.Holders) == 0 {
		t.Error("stall names no holder")
	}
	if n := c1.Frames.Load() + c2.Frames.Load(); n != 0 {
		t.Errorf("stalled batch sent %d frame(s)", n)
	}

	close(release)
	<-unregistered
	if err := r.UnicastBatchErrV(reqs, &sc); err != nil {
		t.Fatalf("batch after the holder left: %v", err)
	}
	if c1.Frames.Load() != 0 || c2.Frames.Load() != 1 {
		t.Errorf("frames = %d/%d, want 0 to the unregistered member and 1 to the other", c1.Frames.Load(), c2.Frames.Load())
	}
	for _, sem := range o.Sems() {
		if err := sem.CheckQuiesced(); err != nil {
			t.Error(err)
		}
	}
	if d := core.WaitersOutstanding() - waiters; d != 0 {
		t.Errorf("WaitersOutstanding moved by %d", d)
	}
}
