package intruder

import (
	"testing"

	"repro/internal/modules/plan"
)

func smallConfig() Config {
	return Config{Attacks: 10, MaxLength: 64, Flows: 400, Seed: 1}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	if len(a.Packets) != len(b.Packets) || a.AttackFlows != b.AttackFlows {
		t.Fatal("generation not deterministic")
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatal("packet traces differ")
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := PaperConfig()
	cfg.Flows = 1000 // keep the test quick; same distribution
	w := Generate(cfg)
	if w.AttackFlows < 50 || w.AttackFlows > 200 {
		t.Errorf("attack flows = %d, expected ≈10%% of 1000", w.AttackFlows)
	}
	// Each flow's fragments must cover contiguous, in-order pieces.
	perFlow := map[int][]Packet{}
	for _, p := range w.Packets {
		perFlow[p.FlowID] = append(perFlow[p.FlowID], p)
	}
	if len(perFlow) != cfg.Flows {
		t.Fatalf("flows = %d", len(perFlow))
	}
	for f, ps := range perFlow {
		if len(ps) != ps[0].NumFrags {
			t.Fatalf("flow %d: %d packets, want %d", f, len(ps), ps[0].NumFrags)
		}
	}
}

// TestPlanShape asserts the synthesized reassembly plan — the Fig 1
// shape: {get(flow),put(flow,*),remove(flow)} on the map, a commuting
// enqueue mode on the queue, an exclusive dequeue mode for Pop.
func TestPlanShape(t *testing.T) {
	p := BuildPlan(plan.Options{AbstractValues: 8})
	if set := p.LockSet(0, "fmap").Key(); set != "{get(flow),put(flow,*),remove(flow)}" {
		t.Errorf("fmap lock set = %s", set)
	}
	if set := p.LockSet(0, "decoded").Key(); set != "{enqueue(payload)}" {
		t.Errorf("decoded enqueue set = %s", set)
	}
	if set := p.LockSet(1, "decoded").Key(); set != "{dequeue()}" {
		t.Errorf("decoded dequeue set = %s", set)
	}
	qt := p.Table("Queue")
	enc := p.Ref(0, "decoded").Mode("x")
	if !qt.Commute(enc, enc) {
		t.Error("enqueue modes must commute (pool semantics)")
	}
	pop := p.Ref(1, "decoded").Mode()
	if qt.Commute(pop, pop) || qt.Commute(pop, enc) {
		t.Error("dequeue must conflict with dequeue and enqueue")
	}
}

// TestAllVariantsDetectAllAttacks: every policy at several worker
// counts must find exactly the injected attacks — reassembly atomicity
// is what guarantees no flow is torn or lost.
func TestAllVariantsDetectAllAttacks(t *testing.T) {
	w := Generate(smallConfig())
	p := BuildPlan(plan.Options{AbstractValues: 8})
	for _, pol := range Policies() {
		for _, workers := range []int{1, 4, 8} {
			var proc Processor
			if pol == "ours" {
				proc = newOurs(p)
			} else {
				proc = NewProcessor(pol)
			}
			got := Run(w, proc, workers)
			if got != w.AttackFlows {
				t.Errorf("%s/%d workers: detected %d attacks, want %d", pol, workers, got, w.AttackFlows)
			}
		}
	}
}

func TestDetect(t *testing.T) {
	if !detect("xxxATTACK-AAAAyyy") {
		t.Error("signature not detected")
	}
	if detect("clean payload") {
		t.Error("false positive")
	}
}
