package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/modules/plan"
)

// testPlan is the small-φ plan the variant tests run "ours" on.
var testPlan = sync.OnceValue(func() *plan.Plan { return BuildPlan(plan.Options{AbstractValues: 8}) })

// newModule builds the named variant with the given limit, "ours" on
// testPlan.
func newModule(pol string, limit int) Module {
	if pol == "ours" {
		return newOurs(testPlan(), limit)
	}
	return New(pol, limit)
}

// TestPlanShape asserts the synthesized plan behind "ours".
func TestPlanShape(t *testing.T) {
	p := testPlan()
	if set := p.LockSet(0, "eden").Key(); set != "{get(k),put(k,*)}" {
		t.Errorf("get section eden lock = %s", set)
	}
	if set := p.LockSet(0, "longterm").Key(); set != "{get(k)}" {
		t.Errorf("get section longterm lock = %s", set)
	}
	if set := p.LockSet(1, "eden").Key(); set != "{clear(),put(k,v),size()}" {
		t.Errorf("put section eden lock = %s", set)
	}
	if set := p.LockSet(1, "longterm").Key(); set != "{putAll(eden)}" {
		t.Errorf("put section longterm lock = %s", set)
	}
	if p.Rank("Map$eden") >= p.Rank("Map$longterm") {
		t.Error("eden must rank before longterm")
	}
	// The printed get section locks eden up front and longterm on the
	// miss path only.
	out := p.Print(0)
	if !strings.Contains(out, "eden.lock({get(k),put(k,*)})") {
		t.Errorf("get plan:\n%s", out)
	}
	if !strings.Contains(out, "longterm.lock({get(k)})") {
		t.Errorf("get plan must lock longterm on the miss path:\n%s", out)
	}
}

// TestVariantsSequential checks cache semantics: put→get, eviction to
// longterm at the limit, and promotion back into eden.
func TestVariantsSequential(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(pol, func(t *testing.T) {
			c := newModule(pol, 4)
			if c.Get(1) != nil {
				t.Fatal("empty cache returned a value")
			}
			for i := 0; i < 4; i++ {
				c.Put(i, fmt.Sprintf("v%d", i))
			}
			// Eden is at the limit; the next put flushes.
			c.Put(99, "v99")
			// Earlier entries live in longterm and must be promoted on Get.
			for i := 0; i < 4; i++ {
				if got := c.Get(i); got != fmt.Sprintf("v%d", i) {
					t.Errorf("Get(%d) = %v after flush", i, got)
				}
			}
			if got := c.Get(99); got != "v99" {
				t.Errorf("Get(99) = %v", got)
			}
		})
	}
}

// TestVariantsNoLostValues: concurrently, Get must never return a value
// that was not Put for that key, and a key that was Put (and never
// re-Put) must retain its value through flushes and promotions.
func TestVariantsNoLostValues(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(pol, func(t *testing.T) {
			c := newModule(pol, 32)
			const keys = 64
			// Each key k is only ever bound to k*10.
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 1500; i++ {
						k := rng.Intn(keys)
						if rng.Intn(10) == 0 {
							c.Put(k, k*10)
						} else {
							if v := c.Get(k); v != nil && v != k*10 {
								t.Errorf("%s: Get(%d) = %v, want %d or nil", pol, k, v, k*10)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			// Every key that was put must still be retrievable.
			for k := 0; k < keys; k++ {
				c.Put(k, k*10)
			}
			for k := 0; k < keys; k++ {
				if v := c.Get(k); v != k*10 {
					t.Errorf("%s: final Get(%d) = %v", pol, k, v)
				}
			}
		})
	}
}
