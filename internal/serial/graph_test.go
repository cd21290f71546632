package serial_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/adtspecs"
	"repro/internal/core"
	"repro/internal/gosrc"
	"repro/internal/interp"
	"repro/internal/serial"
	"repro/internal/synth"
)

// TestGraphBurstsSerializable runs bursts of the Graph module's four
// synthesized sections (find-succ / find-pred / insert / remove) over a
// tiny node space through the interpreter and demands a serial witness
// for every burst — the Multimap-typed instance of the §2.3 theorem.
func TestGraphBurstsSerializable(t *testing.T) {
	f, err := gosrc.ParseFile("../modules/graph/section.go", nil)
	if err != nil {
		t.Fatal(err)
	}
	pr := &synth.Program{Specs: adtspecs.All(), ClassOf: f.ClassOf()}
	for _, fn := range f.Functions {
		pr.Sections = append(pr.Sections, fn.Section)
	}
	res, err := synth.Synthesize(pr, synth.Options{StopAfter: synth.StageRefine, Phi: core.NewPhi(4), MaxModes: 64})
	if err != nil {
		t.Fatal(err)
	}
	e := interp.NewExecutor(res, true)
	e.EvalOpaque = func(text string, env map[string]core.Value) core.Value {
		if text == "ok" {
			b, _ := env["ok"].(bool)
			return b
		}
		panic("unexpected opaque " + text)
	}

	const bursts = 40
	const perBurst = 6
	for b := 0; b < bursts; b++ {
		succs := e.NewInstance("Multimap$succs", "Multimap")
		preds := e.NewInstance("Multimap$preds", "Multimap")
		kinds := map[uint64]string{
			succs.Sem.ID(): "Multimap",
			preds.Sem.ID(): "Multimap",
		}
		var mu sync.Mutex
		logs := make([]serial.TxnLog, perBurst)
		var wg sync.WaitGroup
		for i := 0; i < perBurst; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(b*100 + i)))
				var ops []serial.OpRecord
				env := map[string]core.Value{
					"succs": succs, "preds": preds,
					"s": rng.Intn(3), "d": rng.Intn(3), "n": rng.Intn(3),
					"out": nil, "ok": false,
				}
				si := rng.Intn(4)
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
			t.Fatalf("burst %d: graph execution not serializable", b)
		}
	}
}
