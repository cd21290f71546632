package interp_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/adtspecs"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/synth"
)

// occProg: section 0 "lookup" is read-only (rewritten to an optimistic
// envelope at StageOptimistic), section 1 "update" mutates.
func occProg() *synth.Program {
	lookup := &ir.Atomic{
		Name: "lookup",
		Vars: []ir.Param{
			{Name: "m", Type: "Map", IsADT: true, NonNull: true},
			{Name: "k", Type: "int"}, {Name: "v", Type: "val"},
		},
		Body: ir.Block{
			&ir.Call{Recv: "m", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "k"}}, Assign: "v"},
		},
	}
	update := &ir.Atomic{
		Name: "update",
		Vars: []ir.Param{
			{Name: "m", Type: "Map", IsADT: true, NonNull: true},
			{Name: "k", Type: "int"}, {Name: "x", Type: "val"},
		},
		Body: ir.Block{
			&ir.Call{Recv: "m", Method: "put", Args: []ir.Expr{ir.VarRef{Name: "k"}, ir.VarRef{Name: "x"}}},
		},
	}
	return &synth.Program{Sections: []*ir.Atomic{lookup, update}, Specs: adtspecs.All()}
}

func buildOccExec(t *testing.T) *interp.Executor {
	t.Helper()
	res, err := synth.Synthesize(occProg(), synth.Options{StopAfter: synth.StageOptimistic, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Sections[0].Body[0].(*ir.Optimistic); !ok {
		t.Fatalf("lookup not rewritten: %T", res.Sections[0].Body[0])
	}
	return interp.NewExecutor(res, true)
}

// TestOptimisticInterpCommits: an uncontended optimistic lookup returns
// the right value, commits without falling back (OptimisticHits
// advances), and delivers exactly one buffered hook record.
func TestOptimisticInterpCommits(t *testing.T) {
	e := buildOccExec(t)
	m := e.NewInstance("Map", "Map")

	if err := e.Run(1, map[string]core.Value{"m": m, "k": 1, "x": 42}); err != nil {
		t.Fatal(err)
	}

	var ops []core.Op
	env := map[string]core.Value{"m": m, "k": 1, "v": nil}
	err := e.RunWithHook(0, env, func(_ uint64, op core.Op, _ core.Value) {
		ops = append(ops, op)
	})
	if err != nil {
		t.Fatal(err)
	}
	if env["v"] != 42 {
		t.Errorf("v = %v, want 42", env["v"])
	}
	if len(ops) != 1 || ops[0].Method != "get" {
		t.Errorf("hook ops = %v, want one get", ops)
	}
	st := m.Sem.Stats()
	if st.OptimisticHits == 0 {
		t.Errorf("OptimisticHits = 0 after a committed optimistic run; stats %+v", st)
	}
	if st.OptimisticRetries != 0 {
		t.Errorf("OptimisticRetries = %d for an uncontended run", st.OptimisticRetries)
	}
}

// TestOptimisticInterpFallsBack: while a conflicting update holds its
// lock the observation refuses, so the interpreter runs the pessimistic
// fallback — same answer, refusal counted, no hit.
func TestOptimisticInterpFallsBack(t *testing.T) {
	e := buildOccExec(t)
	m := e.NewInstance("Map", "Map")

	// The update section parks inside its hook, after the put and with
	// its lock still held, until the lookup's refusal has been counted.
	inside, release := make(chan struct{}), make(chan struct{})
	updated := make(chan error, 1)
	go func() {
		updated <- e.RunWithHook(1, map[string]core.Value{"m": m, "k": 7, "x": 11},
			func(uint64, core.Op, core.Value) {
				close(inside)
				<-release
			})
	}()
	<-inside

	env := map[string]core.Value{"m": m, "k": 7, "v": nil}
	looked := make(chan error, 1)
	go func() { looked <- e.Run(0, env) }()
	deadline := time.Now().Add(10 * time.Second)
	for m.Sem.Stats().OptimisticRefusals == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("lookup never refused: %+v", m.Sem.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-updated; err != nil {
		t.Fatal(err)
	}
	if err := <-looked; err != nil {
		t.Fatal(err)
	}
	if env["v"] != 11 {
		t.Errorf("v = %v, want 11 (fallback must produce the same answer)", env["v"])
	}
	st := m.Sem.Stats()
	if st.OptimisticHits != 0 {
		t.Errorf("OptimisticHits = %d for a refused observation", st.OptimisticHits)
	}
	if st.OptimisticRetries != 0 {
		t.Errorf("OptimisticRetries = %d; a refusal runs no body, so nothing is retried", st.OptimisticRetries)
	}
}

// TestOptimisticInterpConcurrent hammers the envelope from mixed reader
// and writer goroutines under checked transactions: readers must always
// see a value some writer put (never a torn or stale-beyond-validation
// result is checkable only statistically here; the serializability
// harness in internal/serial does the history-level check).
func TestOptimisticInterpConcurrent(t *testing.T) {
	e := buildOccExec(t)
	m := e.NewInstance("Map", "Map")
	if err := e.Run(1, map[string]core.Value{"m": m, "k": 0, "x": 0}); err != nil {
		t.Fatal(err)
	}

	const readers, writers, iters = 4, 2, 300
	var wg sync.WaitGroup
	errCh := make(chan error, readers+writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				env := map[string]core.Value{"m": m, "k": 0, "x": w*iters + i}
				if err := e.Run(1, env); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				env := map[string]core.Value{"m": m, "k": 0, "v": nil}
				if err := e.Run(0, env); err != nil {
					errCh <- err
					return
				}
				if _, ok := env["v"].(int); !ok {
					errCh <- errNonInt{env["v"]}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := m.Sem.Stats()
	if st.OptimisticHits+st.OptimisticRetries == 0 {
		t.Errorf("no optimistic attempts recorded: %+v", st)
	}
}

type errNonInt struct{ v core.Value }

func (e errNonInt) Error() string { return "lookup returned non-int value" }
