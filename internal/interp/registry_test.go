package interp_test

import (
	"sync"
	"testing"

	"repro/internal/adtspecs"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/papersec"
	"repro/internal/synth"
)

func papersecFig1() *ir.Atomic { return papersec.Fig1() }

// TestSchedulerSections exercises the extended registry (PQueue, List)
// with a two-section job scheduler: submit inserts a prioritized job and
// journals it; take extracts the minimum-priority job. Under checked
// transactions, inserts may overlap each other (pool semantics) while
// extracts serialize.
func TestSchedulerSections(t *testing.T) {
	vars := func() []ir.Param {
		return []ir.Param{
			{Name: "pq", Type: "PQueue", IsADT: true, NonNull: true},
			{Name: "journal", Type: "List", IsADT: true, NonNull: true},
			{Name: "prio", Type: "int64"},
			{Name: "job", Type: "string"},
			{Name: "idx", Type: "int"},
		}
	}
	submit := &ir.Atomic{
		Name: "submit",
		Vars: vars(),
		Body: ir.Block{
			&ir.Call{Recv: "pq", Method: "insert", Args: []ir.Expr{ir.VarRef{Name: "prio"}, ir.VarRef{Name: "job"}}},
			&ir.Call{Recv: "journal", Method: "append", Args: []ir.Expr{ir.VarRef{Name: "job"}}, Assign: "idx"},
		},
	}
	take := &ir.Atomic{
		Name: "take",
		Vars: vars(),
		Body: ir.Block{
			&ir.Call{Recv: "pq", Method: "extractMin", Assign: "job"},
		},
	}
	res, err := synth.Synthesize(&synth.Program{
		Sections: []*ir.Atomic{submit, take},
		Specs:    adtspecs.All(),
	}, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := interp.NewExecutor(res, true)
	pq := e.NewInstance("PQueue", "PQueue")
	journal := e.NewInstance("List", "List")

	const producers = 4
	const perProducer = 100
	var wg sync.WaitGroup
	errCh := make(chan error, producers+2)
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				env := map[string]core.Value{
					"pq": pq, "journal": journal,
					"prio": int64(g*perProducer + i), "job": "j", "idx": 0,
				}
				if err := e.Run(0, env); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	taken := make([]int, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				env := map[string]core.Value{"pq": pq, "journal": journal, "job": nil, "prio": int64(0), "idx": 0}
				if err := e.Run(1, env); err != nil {
					errCh <- err
					return
				}
				if env["job"] != nil {
					taken[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	remaining := pq.Impl.Invoke("size", nil).(int)
	if taken[0]+taken[1]+remaining != producers*perProducer {
		t.Errorf("jobs lost: taken %d+%d, remaining %d, submitted %d",
			taken[0], taken[1], remaining, producers*perProducer)
	}
	if got := journal.Impl.Invoke("size", nil).(int); got != producers*perProducer {
		t.Errorf("journal has %d entries, want %d", got, producers*perProducer)
	}
}

// TestDequeRegistry covers the Deque dispatcher.
func TestDequeRegistry(t *testing.T) {
	sec := &ir.Atomic{
		Name: "d",
		Vars: []ir.Param{
			{Name: "dq", Type: "Deque", IsADT: true, NonNull: true},
			{Name: "v", Type: "int"},
			{Name: "out", Type: "int"},
		},
		Body: ir.Block{
			&ir.Call{Recv: "dq", Method: "pushBack", Args: []ir.Expr{ir.VarRef{Name: "v"}}},
			&ir.Call{Recv: "dq", Method: "pushFront", Args: []ir.Expr{ir.VarRef{Name: "v"}}},
			&ir.Call{Recv: "dq", Method: "popBack", Assign: "out"},
		},
	}
	res, err := synth.Synthesize(&synth.Program{
		Sections: []*ir.Atomic{sec},
		Specs:    adtspecs.All(),
	}, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := interp.NewExecutor(res, true)
	dq := e.NewInstance("Deque", "Deque")
	env := map[string]core.Value{"dq": dq, "v": 7, "out": nil}
	if err := e.Run(0, env); err != nil {
		t.Fatal(err)
	}
	if env["out"] != 7 {
		t.Errorf("popBack = %v", env["out"])
	}
	if got := dq.Impl.Invoke("size", nil).(int); got != 1 {
		t.Errorf("deque size = %d", got)
	}
}

// TestNoRefineExecution runs the Fig 1 section compiled with refinement
// disabled (generic whole-ADT locks, ablation A1) through the checked
// interpreter — the generic mode must cover every operation.
func TestNoRefineExecution(t *testing.T) {
	res, err := synth.Synthesize(&synth.Program{
		Sections: []*ir.Atomic{papersecFig1()},
		Specs:    adtspecs.All(),
	}, synth.Options{StopAfter: synth.StageNullChecks, Phi: core.NewPhi(4)})
	if err != nil {
		t.Fatal(err)
	}
	e := interp.NewExecutor(res, true)
	env := map[string]core.Value{
		"map": e.NewInstance("Map", "Map"), "queue": e.NewInstance("Queue", "Queue"),
		"set": nil, "id": 3, "x": 1, "y": 2, "flag": true,
	}
	if err := e.Run(0, env); err != nil {
		t.Fatal(err)
	}
}
