package cia

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/modules/plan"
)

// TestPlanShape asserts the synthesized plan the "ours" variant runs:
// one lock on the map in mode {get(key),put(key,*)}, released at the
// section end.
func TestPlanShape(t *testing.T) {
	p := BuildPlan(plan.Options{})
	got := p.Print(0)
	want := `atomic computeIfAbsent {
  m.lock({get(key),put(key,*)});
  value=m.get(key);
  if(value==null) {
    value=compute();
    m.put(key, value);
  }
  m.unlockAll();
}
`
	if got != want {
		t.Errorf("plan:\n%s\nwant:\n%s", got, want)
	}
	if key := p.LockSet(0, "m").Key(); key != "{get(key),put(key,*)}" {
		t.Errorf("lock set = %s", key)
	}
	// The Map table admits per-bucket parallelism: distinct-bucket modes
	// commute.
	tbl := p.Table("Map")
	ref := p.Ref(0, "m")
	if tbl.Commute(ref.Mode(1), ref.Mode(1)) {
		t.Error("same-key modes must conflict (get vs put)")
	}
	found := false
	for k := 2; k < 200; k++ {
		if ref.Mode(1) != ref.Mode(k) {
			if !tbl.Commute(ref.Mode(1), ref.Mode(k)) {
				t.Error("distinct-bucket modes must commute")
			}
			found = true
			break
		}
	}
	if !found {
		t.Error("no distinct bucket found")
	}
}

// TestVariantsSequential: every variant satisfies the computeIfAbsent
// contract sequentially.
func TestVariantsSequential(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(pol, func(t *testing.T) {
			m := New(pol)
			v1 := m.ComputeIfAbsent(7)
			if v1 == nil || len(v1) != ComputeSize {
				t.Fatalf("computed value wrong: %v", v1)
			}
			v2 := m.ComputeIfAbsent(7)
			if &v1[0] != &v2[0] {
				t.Error("second call must return the same value")
			}
			v3 := m.ComputeIfAbsent(8)
			if &v1[0] == &v3[0] {
				t.Error("distinct keys must get distinct values")
			}
		})
	}
}

// TestPresentKeyAllocs pins the compiled section's read path: a key
// already bound costs no allocation, so the key is not boxed onto the
// heap for mode selection or the map read, and the section's closure
// stays on the stack.
func TestPresentKeyAllocs(t *testing.T) {
	m := New("ours")
	const key = 1 << 20 // outside the runtime's preallocated small-integer boxes
	m.ComputeIfAbsent(key)
	if n := testing.AllocsPerRun(100, func() { m.ComputeIfAbsent(key) }); n != 0 {
		t.Errorf("ComputeIfAbsent of a present key: %v allocs, want 0", n)
	}
}

// TestVariantsAtomicity: under heavy same-key contention, every variant
// must hand out exactly one value per key — the bug class this pattern
// is famous for ([22]) is two threads both computing.
func TestVariantsAtomicity(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(pol, func(t *testing.T) {
			m := New(pol)
			const goroutines = 8
			const keys = 13
			results := make([][]([]byte), goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					results[g] = make([][]byte, keys)
					for i := 0; i < 500; i++ {
						k := (g + i) % keys
						v := m.ComputeIfAbsent(k)
						if results[g][k] != nil && &results[g][k][0] != &v[0] {
							t.Errorf("%s: key %d changed value", pol, k)
							return
						}
						results[g][k] = v
					}
				}(g)
			}
			wg.Wait()
			for k := 0; k < keys; k++ {
				var first []byte
				for g := 0; g < goroutines; g++ {
					if results[g][k] == nil {
						continue
					}
					if first == nil {
						first = results[g][k]
					} else if &first[0] != &results[g][k][0] {
						t.Errorf("%s: key %d has two values (atomicity broken)", pol, k)
					}
				}
			}
		})
	}
}

// TestAblationNoRefine: the A1 variant locks the whole ADT generically.
func TestAblationNoRefine(t *testing.T) {
	p := BuildPlan(plan.Options{NoRefine: true})
	if !strings.Contains(p.Print(0), "m.lock(+)") {
		t.Errorf("NoRefine plan should use generic lock:\n%s", p.Print(0))
	}
	m := newOurs(p)
	a, b := m.ComputeIfAbsent(1), m.ComputeIfAbsent(1)
	if &a[0] != &b[0] {
		t.Error("NoRefine variant broken")
	}
}

// TestAblationSmallPhi: fewer abstract values still correct.
func TestAblationSmallPhi(t *testing.T) {
	m := newOurs(BuildPlan(plan.Options{AbstractValues: 2}))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.ComputeIfAbsent(i % 5)
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkAblation measures the "ours" variant under the design
// ablations (A1–A3) — real execution; the scaling ablation curves come
// from `benchall -exp ablation`.
func BenchmarkAblation(b *testing.B) {
	const keySpace = 1 << 17
	variants := map[string]plan.Options{
		"full-64":     {},
		"norefine-A1": {NoRefine: true},
		"phi4-A2":     {AbstractValues: 4},
		"nopart-A3":   {NoPartition: true},
	}
	for name, opt := range variants {
		b.Run(name, func(b *testing.B) {
			m := newOurs(BuildPlan(opt))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(1))
				for pb.Next() {
					m.ComputeIfAbsent(rng.Intn(keySpace))
				}
			})
		})
	}
}
