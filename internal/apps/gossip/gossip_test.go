package gossip

import (
	"sync"
	"testing"

	"repro/internal/modules/plan"
)

// testPlan is the small-φ plan the router tests run "ours" on.
var testPlan = sync.OnceValue(func() *plan.Plan {
	return BuildPlan(plan.Options{AbstractValues: 8, MaxModes: 1024})
})

// newRouter builds the named router, "ours" on testPlan.
func newRouter(pol string) Router {
	if pol == "ours" {
		return newOurs(testPlan())
	}
	return New(pol)
}

// TestPlanShape asserts the synthesized router plan.
func TestPlanShape(t *testing.T) {
	p := testPlan()
	if set := p.LockSet(0, "groups").Key(); set != "{get(g),put(g,*)}" {
		t.Errorf("register groups lock = %s", set)
	}
	if set := p.LockSet(0, "members").Key(); set != "{put(m,conn)}" {
		t.Errorf("register members lock = %s", set)
	}
	if set := p.LockSet(2, "members").Key(); set != "{get(dst)}" {
		t.Errorf("unicast members lock = %s", set)
	}
	if set := p.LockSet(3, "members").Key(); set != "{values()}" {
		t.Errorf("multicast members lock = %s", set)
	}
	if p.Rank("Map$groups") >= p.Rank("Map$members") {
		t.Error("groups must rank before members")
	}
	// Multicasts commute with each other and with unicasts (reads).
	tbl := p.Table("Map$members")
	mc := p.Ref(3, "members").Mode()
	uni := p.Ref(2, "members").Mode("peer")
	if !tbl.Commute(mc, mc) {
		t.Error("multicast modes must commute")
	}
	if !tbl.Commute(mc, uni) {
		t.Error("multicast and unicast modes must commute")
	}
	// Registration conflicts with multicast on the same instance.
	reg := p.Ref(0, "members").Mode(nil, "m1")
	if tbl.Commute(mc, reg) {
		t.Error("multicast must conflict with registration")
	}
}

// TestRouterSemantics: registration, unicast, multicast, unregister.
func TestRouterSemantics(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(pol, func(t *testing.T) {
			r := newRouter(pol)
			a, b := NewConn("a", 0), NewConn("b", 0)
			r.Register("g", "a", a)
			r.Register("g", "b", b)
			r.Unicast("g", "a", []byte("x"))
			if a.Frames.Load() != 1 || b.Frames.Load() != 0 {
				t.Fatalf("unicast delivered a=%d b=%d", a.Frames.Load(), b.Frames.Load())
			}
			r.Multicast("g", []byte("yy"))
			if a.Frames.Load() != 2 || b.Frames.Load() != 1 {
				t.Fatalf("multicast delivered a=%d b=%d", a.Frames.Load(), b.Frames.Load())
			}
			r.Unregister("g", "a")
			r.Multicast("g", []byte("z"))
			if a.Frames.Load() != 2 || b.Frames.Load() != 2 {
				t.Fatalf("post-unregister delivery a=%d b=%d", a.Frames.Load(), b.Frames.Load())
			}
			// Unknown group / member: no panic, no delivery.
			r.Unicast("nope", "a", []byte("x"))
			r.Multicast("nope", []byte("x"))
			r.Unregister("nope", "a")
		})
	}
}

// TestRouterConcurrent: concurrent registers/routes across groups; all
// frames are eventually delivered and membership converges.
func TestRouterConcurrent(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(pol, func(t *testing.T) {
			r := newRouter(pol)
			groups := []string{"g0", "g1", "g2"}
			conns := make([]*Conn, 12)
			var wg sync.WaitGroup
			for i := range conns {
				conns[i] = NewConn("m"+string(rune('0'+i)), 0)
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					r.Register(groups[i%3], conns[i].Member, conns[i])
				}(i)
			}
			wg.Wait()
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						r.Multicast(groups[(w+i)%3], []byte("payload"))
					}
				}(w)
			}
			wg.Wait()
			var total int64
			for _, c := range conns {
				total += c.Frames.Load()
			}
			// 6 workers × 200 multicasts, each to a group of 4 members.
			if total != 6*200*4 {
				t.Errorf("%s: delivered %d frames, want %d", pol, total, 6*200*4)
			}
		})
	}
}

// TestMPerfGroundTruth: every policy delivers exactly the expected
// frame count at several worker counts.
func TestMPerfGroundTruth(t *testing.T) {
	cfg := MPerfConfig{Clients: 4, Messages: 100, UnicastRatio: 10, SendCost: 0, Workers: 3}
	want := ExpectedFrames(cfg)
	for _, pol := range Policies() {
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			r := newRouter(pol)
			res := RunMPerf(r, cfg)
			if res.FramesDelivered != want {
				t.Errorf("%s/%d workers: %d frames, want %d", pol, workers, res.FramesDelivered, want)
			}
			if res.Handled != cfg.Clients*cfg.Messages {
				t.Errorf("%s: handled %d messages", pol, res.Handled)
			}
		}
	}
}
