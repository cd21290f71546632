package gossip

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/modules/plan"
	"repro/internal/resilience"
)

// TestBoxedEquivalence: the V variants compute exactly what the string
// variants compute — same membership answers, same delivered frames.
func TestBoxedEquivalence(t *testing.T) {
	os := NewOursFused(0, plan.Options{})
	ov := NewOursFused(0, plan.Options{})

	groups := []string{"g0", "g1"}
	members := []string{"m0", "m1", "m2"}
	connsS := map[string]*Conn{}
	connsV := map[string]*Conn{}
	box := func(s string) core.Value { return s }

	for _, g := range groups {
		for _, m := range members {
			key := g + "/" + m
			connsS[key] = NewConn(m, 0)
			connsV[key] = NewConn(m, 0)
			os.Register(g, m, connsS[key])
			ov.RegisterV(box(g), box(m), connsV[key])
		}
	}
	payload := []byte("p")
	for i := 0; i < 200; i++ {
		g := groups[i%2]
		m := members[i%3]
		switch i % 7 {
		case 0:
			os.Unicast(g, m, payload)
			ov.UnicastV(box(g), box(m), payload)
		case 1:
			os.Multicast(g, payload)
			ov.MulticastV(box(g), payload)
		case 2:
			if a, b := os.Lookup(g, m), ov.LookupV(box(g), box(m)); a != b {
				t.Fatalf("lookup(%s,%s): string=%v boxed=%v", g, m, a, b)
			}
			if a, b := os.LookupPessimistic(g, m), ov.LookupV(box(g), box(m)); a != b {
				t.Fatalf("lookup(%s,%s): pessimistic=%v boxed=%v", g, m, a, b)
			}
		case 3:
			os.Unregister(g, m)
			ov.UnregisterV(box(g), box(m))
		case 4:
			os.Register(g, m, connsS[g+"/"+m])
			ov.RegisterV(box(g), box(m), connsV[g+"/"+m])
		case 5:
			reqs := []SendReq{{box(g), box(members[0]), payload}, {box(g), box(members[1]), payload},
				{box(groups[(i+1)%2]), box(m), payload}}
			var sc BatchScratch
			ov.UnicastBatchV(reqs, &sc)
			for _, r := range reqs {
				os.Unicast(r.Group.(string), r.Dst.(string), payload)
			}
		case 6:
			// Lookup of a never-registered member and group.
			if a, b := os.Lookup("absent", m), ov.LookupV(box("absent"), box(m)); a != b {
				t.Fatalf("absent-group lookup mismatch: %v vs %v", a, b)
			}
		}
	}
	for _, g := range groups {
		for _, m := range members {
			key := g + "/" + m
			if a, b := connsS[key].Frames.Load(), connsV[key].Frames.Load(); a != b {
				t.Fatalf("conn %s frames: string=%d boxed=%d", key, a, b)
			}
			if a, b := os.Lookup(g, m), ov.LookupV(box(g), box(m)); a != b {
				t.Fatalf("final lookup(%s,%s) mismatch: %v vs %v", g, m, a, b)
			}
		}
	}
}

// TestBoxedAllocs: with pre-boxed keys the sections allocate nothing in
// steady state — the router half of the wire path's 0 allocs/op pin
// (the server half is pinned in internal/net/server) — multicast
// included: it walks the member map in place under its held mode.
func TestBoxedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation heap-allocates stack closures; the 0 allocs/op pin holds on the normal build")
	}
	o := NewOursFused(0, plan.Options{})
	var g, m core.Value = "g0", "m0"
	conn := NewConn("m0", 0)
	o.RegisterV(g, m, conn)
	payload := []byte("payload")

	if n := testing.AllocsPerRun(2000, func() { o.LookupV(g, m) }); n != 0 {
		t.Errorf("LookupV allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { o.UnicastV(g, m, payload) }); n != 0 {
		t.Errorf("UnicastV allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { o.MulticastV(g, payload) }); n != 0 {
		t.Errorf("MulticastV allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { o.UnregisterV(g, m); o.RegisterV(g, m, conn) }); n != 0 {
		t.Errorf("UnregisterV+RegisterV allocs/op = %v, want 0", n)
	}
	reqs := []SendReq{{g, m, payload}, {g, m, payload}, {g, m, payload}, {g, m, payload}}
	var sc BatchScratch
	o.UnicastBatchV(reqs, &sc) // warm the scratch capacity
	if n := testing.AllocsPerRun(2000, func() { o.UnicastBatchV(reqs, &sc) }); n != 0 {
		t.Errorf("UnicastBatchV allocs/op = %v, want 0", n)
	}
}

// TestStringFormAllocs: a string key that a section only reads is boxed
// on the caller's stack, so Unicast, Lookup, Unregister and Multicast
// (which walks the member map in place) allocate nothing; Register
// stores its two keys and pays for them. Every way of building the
// router runs the same bodies, so every constructor is held to the same
// pins.
func TestStringFormAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation heap-allocates stack closures; the pins hold on the normal build")
	}
	routers := map[string]*Ours{
		`New("ours")`:  New("ours", 0, plan.Options{}).(*Ours),
		"NewOurs":      NewOurs(0, plan.Options{}),
		"NewOursFused": NewOursFused(0, plan.Options{}),
	}
	for ctor, o := range routers {
		conn := NewConn("m0", 0)
		o.Register("g0", "m0", conn)
		payload := []byte("payload")
		pins := []struct {
			name  string
			limit float64
			op    func()
		}{
			{"Unicast", 0, func() { o.Unicast("g0", "m0", payload) }},
			{"Lookup", 0, func() { o.Lookup("g0", "m0") }},
			{"Multicast", 0, func() { o.Multicast("g0", payload) }},
			{"Unregister", 0, func() { o.Unregister("g0", "m1") }},
			{"Register", 2, func() { o.Register("g0", "m0", conn) }},
		}
		for _, p := range pins {
			if n := testing.AllocsPerRun(2000, p.op); n > p.limit {
				t.Errorf("%s: %s allocs/op = %v, want <= %v", ctor, p.name, n, p.limit)
			}
		}
	}
}

// TestUnicastBatchRace: batched and single-frame unicasts, membership
// churn, and lookups race under -race; delivered-frame accounting must
// balance and nothing may leak.
func TestUnicastBatchRace(t *testing.T) {
	o := NewOursFused(0, plan.Options{})
	const G, M = 4, 8
	conns := map[string]*Conn{}
	for g := 0; g < G; g++ {
		for m := 0; m < M; m++ {
			gn, mn := fmt.Sprintf("g%d", g), fmt.Sprintf("m%d", m)
			c := NewConn(mn, 0)
			conns[gn+"/"+mn] = c
			o.Register(gn, mn, c)
		}
	}
	payload := []byte("x")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc BatchScratch
			var reqs [6]SendReq
			for i := 0; i < 300; i++ {
				gn := fmt.Sprintf("g%d", (i+w)%G)
				switch i % 3 {
				case 0:
					n := 2 + i%5
					for j := 0; j < n; j++ {
						reqs[j] = SendReq{
							Group: fmt.Sprintf("g%d", (i+j)%G),
							Dst:   fmt.Sprintf("m%d", (w+j)%M), Payload: payload,
						}
					}
					o.UnicastBatchV(reqs[:n], &sc)
				case 1:
					o.LookupV(gn, fmt.Sprintf("m%d", i%M))
				case 2:
					mn := fmt.Sprintf("m%d", w)
					o.UnregisterV(gn, mn)
					o.RegisterV(gn, mn, conns[gn+"/"+mn])
				}
			}
		}(w)
	}
	wg.Wait()
	leaked := int64(0)
	for _, s := range o.Sems() {
		leaked += s.OutstandingHolds()
		if err := s.CheckQuiesced(); err != nil {
			t.Fatalf("quiesce: %v", err)
		}
	}
	if leaked != 0 {
		t.Fatalf("leaked holds: %d", leaked)
	}
}

// TestResilientBoxedEquivalence: the policied V variants agree with the
// plain V variants when the policy never refuses — and a nil policy,
// which has no breaker and no bound, never refuses: every ErrV form
// returns nil and leaves the router as the blocking form leaves Ours.
func TestResilientBoxedEquivalence(t *testing.T) {
	for _, arm := range []struct {
		name string
		p    *resilience.Policy
	}{
		{"policy", resilience.New("test", resilience.Config{})},
		{"nil", nil},
	} {
		t.Run(arm.name, func(t *testing.T) {
			o := NewOursFused(0, plan.Options{})
			r := NewResilient(NewOursFused(0, plan.Options{}), arm.p)
			var g, m core.Value = "g0", "m0"
			co, c := NewConn("m0", 0), NewConn("m0", 0)
			same := func(what string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if a, b := co.Frames.Load(), c.Frames.Load(); a != b {
					t.Fatalf("after %s: Ours delivered %d frames, Resilient %d", what, a, b)
				}
				found, err := r.LookupErrV(g, m)
				if err != nil || found != o.LookupV(g, m) {
					t.Fatalf("after %s: LookupErrV = %v, %v; LookupV = %v", what, found, err, o.LookupV(g, m))
				}
			}

			o.RegisterV(g, m, co)
			same("RegisterErrV", r.RegisterErrV(g, m, c))
			o.UnicastV(g, m, []byte("p"))
			same("UnicastErrV", r.UnicastErrV(g, m, []byte("p")))
			o.MulticastV(g, []byte("q"))
			same("MulticastErrV", r.MulticastErrV(g, []byte("q")))
			if got := c.Frames.Load(); got != 2 {
				t.Fatalf("frames = %d, want 2", got)
			}
			var so, sc BatchScratch
			o.UnicastBatchV([]SendReq{{g, m, nil}, {g, m, nil}}, &so)
			same("UnicastBatchErrV", r.UnicastBatchErrV([]SendReq{{g, m, nil}, {g, m, nil}}, &sc))
			if got := c.Frames.Load(); got != 4 {
				t.Fatalf("frames after batch = %d, want 4", got)
			}
			o.UnregisterV(g, m)
			same("UnregisterErrV", r.UnregisterErrV(g, m))
			if found, _ := r.LookupErrV(g, m); found {
				t.Fatal("member still present after UnregisterErrV")
			}
			for _, s := range r.Sems() {
				if err := s.CheckQuiesced(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
