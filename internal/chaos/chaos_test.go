package chaos_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/gossip"
	"repro/internal/apps/intruder"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/modules/plan"
)

// All tests here are named TestChaos* so CI's `-run Chaos` selects the
// whole file; they are sized to finish quickly under -race.

// gossipMix drives a deterministic mixed workload (register/unregister/
// unicast/multicast) with every op shielded against injected faults,
// returning how many ops were absorbed as faults.
func gossipMix(r *gossip.Ours, workers, opsPer int) uint64 {
	var faulted atomic64
	payload := []byte("chaos-payload")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				g := fmt.Sprintf("g%d", (w+i)%4)
				m := fmt.Sprintf("m%d", i%8)
				op := (w*31 + i*7) % 100
				hit := chaos.Shield(func() {
					switch {
					case op < 10:
						r.Register(g, m, gossip.NewConn(m, 0))
					case op < 20:
						r.Unregister(g, m)
					case op < 60:
						r.Unicast(g, m, payload)
					default:
						r.Multicast(g, payload)
					}
				})
				if hit {
					faulted.add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return faulted.load()
}

type atomic64 struct {
	mu sync.Mutex
	n  uint64
}

func (a *atomic64) add(d uint64) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

func seedGossip(r *gossip.Ours) {
	for g := 0; g < 4; g++ {
		for m := 0; m < 8; m++ {
			name := fmt.Sprintf("m%d", m)
			r.Register(fmt.Sprintf("g%d", g), name, gossip.NewConn(name, 0))
		}
	}
}

// TestChaosGossipPanicRecovery injects panics and scheduler delays into
// the router's atomic sections under concurrency and asserts full
// recovery: faults actually fired, every instance quiesced (counters
// zero, waitMask empty, no registered waiters), the waiter free-list
// did not leak, and a fault-free batch afterwards completes.
func TestChaosGossipPanicRecovery(t *testing.T) {
	r := gossip.NewOurs(0, plan.Options{})
	inj := chaos.NewInjector(chaos.Config{
		PanicEvery: 7,
		DelayEvery: 5,
		MaxDelay:   200 * time.Microsecond,
	})
	r.FaultHook = inj.Hook
	seedGossip(r)

	inj.Arm()
	faulted := gossipMix(r, 8, 300)
	inj.Disarm()

	panics, _, delays := inj.Counts()
	if panics == 0 || delays == 0 {
		t.Fatalf("injector idle: %d panics, %d delays", panics, delays)
	}
	if faulted == 0 {
		t.Fatal("no op observed an absorbed fault")
	}
	for _, s := range r.Sems() {
		if err := s.CheckQuiesced(); err != nil {
			t.Fatal(err)
		}
	}
	if n := core.WaitersOutstanding(); n != 0 {
		t.Fatalf("waiter free-list leaked: %d outstanding", n)
	}

	// Disarmed recovery batch: everything must succeed.
	if f := gossipMix(r, 4, 100); f != 0 {
		t.Fatalf("disarmed run absorbed %d faults", f)
	}
	for _, s := range r.Sems() {
		if err := s.CheckQuiesced(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosIntruderPanicRecovery runs the reassembly pipeline with
// injected mid-section panics: dropped packets are acceptable (their
// flows never complete), leaked locks are not.
func TestChaosIntruderPanicRecovery(t *testing.T) {
	proc := intruder.NewOurs(plan.Options{})
	inj := chaos.NewInjector(chaos.Config{PanicEvery: 13, DelayEvery: 9})
	proc.FaultHook = inj.Hook

	w := intruder.Generate(intruder.Config{Attacks: 10, MaxLength: 64, Flows: 1500, Seed: 1})
	inj.Arm()
	var wg sync.WaitGroup
	var faulted atomic64
	const workers = 8
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < len(w.Packets); i += workers {
				p := w.Packets[i]
				if chaos.Shield(func() { proc.Process(p) }) {
					faulted.add(1)
				}
				chaos.Shield(func() { proc.Pop() })
			}
		}(wk)
	}
	wg.Wait()
	inj.Disarm()

	if faulted.load() == 0 {
		t.Fatal("no reassembly op observed an absorbed fault")
	}
	for _, s := range proc.Sems() {
		if err := s.CheckQuiesced(); err != nil {
			t.Fatal(err)
		}
	}
	if n := core.WaitersOutstanding(); n != 0 {
		t.Fatalf("waiter free-list leaked: %d outstanding", n)
	}
}

// TestChaosSlowHolderWatchdog plants a slow holder inside multicast and
// checks that a stall scan observes the blocked acquisition:
// a report naming at least one holder slot and one over-threshold
// waiter with its wait duration.
func TestChaosSlowHolderWatchdog(t *testing.T) {
	r := gossip.NewOurs(0, plan.Options{})
	seedGossip(r)

	release := make(chan struct{})
	var once sync.Once
	r.FaultHook = func(site string) {
		if site == "multicast" {
			once.Do(func() { <-release }) // one deliberately stuck holder
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); r.Multicast("g0", []byte("x")) }()
	go func() {
		defer wg.Done()
		time.Sleep(20 * time.Millisecond) // let the multicast grab its locks
		r.Register("g0", "m0", gossip.NewConn("m0", 0))
	}()

	deadline := time.After(2 * time.Second)
	var got core.StallReport
	found := false
	for !found {
		select {
		case <-deadline:
			close(release)
			wg.Wait()
			t.Fatal("stall scan never reported the stalled register")
		default:
		}
		for _, rep := range core.ScanStalls(10*time.Millisecond, r.Sems()...) {
			if len(rep.Holders) > 0 && len(rep.Waiters) > 0 {
				got, found = rep, true
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got.Class == "" || got.Holders[0].Mode == "" {
		t.Errorf("report lacks names: %+v", got)
	}
	if got.Waiters[0].Waited < 10*time.Millisecond {
		t.Errorf("waiter under threshold reported: %v", got.Waiters[0].Waited)
	}
	for _, s := range r.Sems() {
		if err := s.CheckQuiesced(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosShieldForeignPanic: Shield only absorbs injected faults —
// a genuine bug's panic keeps unwinding (wrapped as SectionPanic).
func TestChaosShieldForeignPanic(t *testing.T) {
	defer func() {
		r := recover()
		sp, ok := r.(*core.SectionPanic)
		if !ok {
			t.Fatalf("expected *core.SectionPanic, got %#v", r)
		}
		if s, ok := sp.Value.(string); !ok || !strings.Contains(s, "real bug") {
			t.Fatalf("wrong wrapped value: %#v", sp.Value)
		}
	}()
	chaos.Shield(func() {
		core.Atomically(func(tx *core.Txn) { panic("real bug") })
	})
	t.Fatal("foreign panic was absorbed")
}
