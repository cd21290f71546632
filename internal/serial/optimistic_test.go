package serial_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/adtspecs"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/serial"
	"repro/internal/synth"
)

// occSections builds the mixed program: "lookup" is read-only and gets
// the optimistic envelope at StageOptimistic; "update" stays
// pessimistic.
func occSections() *synth.Program {
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
			&ir.Call{Recv: "m", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "k"}}, Assign: "x"},
			&ir.Call{Recv: "m", Method: "put", Args: []ir.Expr{ir.VarRef{Name: "k"}, ir.VarRef{Name: "x2"}}},
		},
	}
	update.Vars = append(update.Vars, ir.Param{Name: "x2", Type: "val"})
	return &synth.Program{Sections: []*ir.Atomic{lookup, update}, Specs: adtspecs.All()}
}

// TestMixedBurstsSerializable: bursts mixing optimistic lookups with
// pessimistic updates on a contended key space must all have a serial
// witness. An optimistic transaction enters the history only when its
// validation commits (the interpreter buffers its records), logically at
// the validation point — so the burst's logs are an ordinary history and
// the standard checker applies.
func TestMixedBurstsSerializable(t *testing.T) {
	res, err := synth.Synthesize(occSections(), synth.Options{StopAfter: synth.StageOptimistic, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Sections[0].Body[0].(*ir.Optimistic); !ok {
		t.Fatalf("lookup not rewritten: %T", res.Sections[0].Body[0])
	}
	e := interp.NewExecutor(res, true)

	var hits, retries uint64
	const bursts = 60
	const txns = 6
	for b := 0; b < bursts; b++ {
		m := e.NewInstance("Map", "Map")
		kinds := map[uint64]string{m.Sem.ID(): "Map"}
		var mu sync.Mutex
		logs := make([]serial.TxnLog, txns)
		var wg sync.WaitGroup
		for i := 0; i < txns; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var ops []serial.OpRecord
				var env map[string]core.Value
				si := 0
				if i%2 == 0 {
					si = 1 // writer
					env = map[string]core.Value{"m": m, "k": i % 2, "x": nil, "x2": b*txns + i}
				} else {
					env = map[string]core.Value{"m": m, "k": i % 2, "v": nil}
				}
				err := e.RunWithHook(si, env, func(inst uint64, o core.Op, r core.Value) {
					ops = append(ops, serial.OpRecord{Instance: inst, Op: o, Result: r})
				})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				logs[i] = serial.TxnLog{ID: i, Ops: ops}
				mu.Unlock()
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		model := serial.NewMapsAndSets(kinds)
		if _, ok := serial.Check(model, logs); !ok {
			for _, l := range logs {
				t.Logf("txn %d: %v", l.ID, l.Ops)
			}
			t.Fatalf("burst %d: mixed optimistic/pessimistic history has no serial witness", b)
		}
		st := m.Sem.Stats()
		hits += st.OptimisticHits
		retries += st.OptimisticRetries
	}
	if hits == 0 {
		t.Errorf("no optimistic commit in %d bursts (retries=%d); envelope never exercised", bursts, retries)
	}
}

// TestOptimisticRaceHammer races optimistic readers — through the Txn
// envelope and through a bare core.Snapshot, the two entries to the one
// observe/validate protocol — against batched pessimistic writers
// (core.Txn.LockBatch → AcquireBatch) over a two-instance invariant:
// writers advance two counters in lockstep under both locks, readers
// snapshot both lock-free and validate. Every validated read must see
// the invariant intact — and under -race the version-counter protocol
// itself is checked for races.
func TestOptimisticRaceHammer(t *testing.T) {
	keySet := core.SymSetOf(
		core.SymOpOf("get", core.VarArg("k")),
		core.SymOpOf("put", core.VarArg("k"), core.Star()),
		core.SymOpOf("remove", core.VarArg("k")))
	tbl := core.NewModeTable(adtspecs.Map(), []core.SymSet{keySet},
		core.TableOptions{Phi: core.NewPhi(4)})
	amode := tbl.Set(keySet).Mode(1)
	bmode := tbl.Set(keySet).Mode(1)

	// read runs one optimistic section observing a then b around body,
	// and reports whether it committed.
	type readFunc func(tx *core.Txn, a, b *core.Semantic, body func()) bool
	shapes := []struct {
		name string
		read readFunc
	}{
		{"envelope", func(tx *core.Txn, a, b *core.Semantic, body func()) bool {
			defer tx.Reset()
			return tx.TryOptimistic(func(tx *core.Txn) bool {
				if !tx.Observe(a, amode, 0) || !tx.Observe(b, bmode, 1) {
					return false
				}
				body()
				return true
			})
		}},
		{"snapshot", func(_ *core.Txn, a, b *core.Semantic, body func()) bool {
			var sn core.Snapshot
			if !sn.Observe(a, amode) || !sn.Observe(b, bmode) {
				return false
			}
			body()
			return sn.Validate()
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			a, b := core.NewSemantic(tbl), core.NewSemantic(tbl)
			var x, y atomic.Int64
			const writers, readers, iters = 2, 4, 2000

			var wg sync.WaitGroup
			torn := make(chan [2]int64, readers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tx := core.NewTxn()
					for i := 0; i < iters; i++ {
						tx.LockBatch(
							core.BatchLock{Sem: a, Mode: amode, Rank: 0},
							core.BatchLock{Sem: b, Mode: bmode, Rank: 1},
						)
						x.Add(1)
						y.Add(1)
						tx.UnlockAll()
						tx.Reset()
					}
				}()
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tx := core.NewTxn()
					for i := 0; i < iters; i++ {
						var rx, ry int64
						ok := shape.read(tx, a, b, func() { rx, ry = x.Load(), y.Load() })
						if ok && rx != ry {
							torn <- [2]int64{rx, ry}
							return
						}
					}
				}()
			}
			wg.Wait()
			close(torn)
			for pair := range torn {
				t.Fatalf("validated optimistic read saw torn invariant: x=%d y=%d", pair[0], pair[1])
			}

			// After the writers drain, the first uncontended read commits:
			// nothing turns reads away after a run of failures.
			if !shape.read(core.NewTxn(), a, b, func() {}) {
				t.Error("uncontended optimistic read failed after contention drained")
			}
			if hits := a.Stats().OptimisticHits; hits == 0 {
				t.Error("no optimistic hits recorded on instance a")
			}
		})
	}
}
