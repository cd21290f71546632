package synth_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/papersec"
	"repro/internal/synth"
)

// TestFig8RestrictionsGraph: the restrictions-graph of the Fig 7 section
// has the single edge Map → Set (Example 3.3: the only restriction).
func TestFig8RestrictionsGraph(t *testing.T) {
	res := synthesizeAt(t, paperProgram(papersec.Fig7()), synth.StageInsert)
	if got := res.Graph.String(); got != "Map->Set" {
		t.Errorf("Fig 7 restrictions-graph = %q, want \"Map->Set\"", got)
	}
}

// TestFig10RestrictionsGraph: the Fig 9 loop makes the Set class
// self-reachable with reassignment, yielding a self-loop (the cycle of
// Fig 10) before wrapping.
func TestFig10RestrictionsGraph(t *testing.T) {
	res := synthesizeAt(t, paperProgram(papersec.Fig9()), synth.StageInsert)
	pre := res.PreWrapGraph
	if !pre.HasEdge("Set", "Set") {
		t.Errorf("pre-wrap graph %q must contain the Set self-loop", pre)
	}
	if !pre.HasEdge("Map", "Set") {
		t.Errorf("pre-wrap graph %q must contain Map->Set", pre)
	}
	if pre.HasEdge("Set", "Map") || pre.HasEdge("Map", "Map") {
		t.Errorf("unexpected edges in %q", pre)
	}
	// After wrapping the graph is acyclic and the wrapper is never a
	// lock-order target.
	for _, comp := range res.Graph.CyclicComponents() {
		t.Errorf("post-wrap graph still has cyclic component %v", comp)
	}
}

// TestFig11CombinedGraph: the graph computed for the sections of Fig 1
// and Fig 7 together, and the induced order map < set < queue.
func TestFig11CombinedGraph(t *testing.T) {
	res := synthesizeAt(t, paperProgram(papersec.Fig1(), papersec.Fig7()), synth.StageInsert)
	if got := res.Graph.String(); got != "Map->Set" {
		t.Errorf("combined graph = %q, want \"Map->Set\"", got)
	}
	if !(res.Rank("Map") < res.Rank("Set") && res.Rank("Set") < res.Rank("Queue")) {
		t.Errorf("order should be Map < Set < Queue; got ranks %d %d %d",
			res.Rank("Map"), res.Rank("Set"), res.Rank("Queue"))
	}
	if len(res.Sections) != 2 {
		t.Fatalf("expected both sections transformed")
	}
}

// TestSelfLoopFromReceiverReassignment: reassigning a receiver variable
// inside a loop makes its own class cyclic and forces wrapping.
func TestSelfLoopFromReceiverReassignment(t *testing.T) {
	sec := &ir.Atomic{
		Name: "walk",
		Vars: []ir.Param{
			{Name: "m", Type: "Map", IsADT: true, NonNull: true},
			{Name: "k", Type: "int"},
		},
		Body: ir.Block{
			&ir.While{
				Cond: ir.OpaqueCond{Text: "k>0", Reads: []string{"k"}},
				Body: ir.Block{
					&ir.Call{Recv: "m", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "k"}}, Assign: "m"},
					&ir.Assign{Lhs: "k", Rhs: ir.Opaque{Text: "k-1", Reads: []string{"k"}}},
				},
			},
		},
	}
	res := synthesizeAt(t, paperProgram(sec), synth.StageInsert)
	if len(res.Wrappers) != 1 {
		t.Fatalf("expected a wrapper for the self-cyclic Map class; got %d", len(res.Wrappers))
	}
	out := ir.Print(res.Sections[0])
	if !strings.Contains(out, "p1.get(m, k)") {
		t.Errorf("call not rewritten through wrapper:\n%s", out)
	}
}

// TestWrapperSpec: wrapped operations commute across distinct instances
// and fall back to the shifted original condition on one instance.
func TestWrapperSpec(t *testing.T) {
	res := synthesizeAt(t, paperProgram(papersec.Fig9()), synth.StageInsert)
	spec := res.Wrappers[0].Spec
	// size(s) vs size(s'): size/size always commute.
	if !spec.OpsCommute(core.NewOp("size", "inst1"), core.NewOp("size", "inst2")) {
		t.Error("wrapped size ops must commute")
	}
	// add(s,v) vs clear(s): same instance, originals never commute.
	if spec.OpsCommute(core.NewOp("add", "inst1", 5), core.NewOp("clear", "inst1")) {
		t.Error("wrapped add/clear on one instance must conflict")
	}
	// add(s,v) vs clear(s'): distinct instances always commute.
	if !spec.OpsCommute(core.NewOp("add", "inst1", 5), core.NewOp("clear", "inst2")) {
		t.Error("wrapped ops on distinct instances must commute")
	}
	// add(s,5) vs remove(s,6): same instance, distinct values — the
	// shifted original condition applies.
	if !spec.OpsCommute(core.NewOp("add", "i", 5), core.NewOp("remove", "i", 6)) {
		t.Error("shifted add/remove condition must hold for distinct values")
	}
	if spec.OpsCommute(core.NewOp("add", "i", 5), core.NewOp("remove", "i", 5)) {
		t.Error("add/remove of one value on one instance must conflict")
	}
}

// TestTablesBuilt: the full pipeline compiles a mode table for every
// locked class, and the Fig 1 Map table admits per-key parallelism.
func TestTablesBuilt(t *testing.T) {
	res := synthesizeAt(t, paperProgram(papersec.Fig1()), synth.StageRefine)
	for _, key := range []string{"Map", "Set", "Queue"} {
		if res.Tables[key] == nil {
			t.Fatalf("no mode table for class %s", key)
		}
	}
	mapTbl := res.Tables["Map"]
	set := core.SymSetOf(
		core.SymOpOf("get", core.VarArg("id")),
		core.SymOpOf("put", core.VarArg("id"), core.Star()),
		core.SymOpOf("remove", core.VarArg("id")),
	)
	ref := mapTbl.Set(set)
	m1 := ref.Mode(1)
	m2 := ref.Mode(2)
	if m1 == m2 {
		t.Skip("keys 1 and 2 hash to one bucket; extremely unlikely with 64 buckets")
	}
	if !mapTbl.Commute(m1, m2) {
		t.Error("distinct-key Fig 1 Map modes must commute (the scalability source)")
	}
	if mapTbl.Commute(m1, m1) {
		t.Error("same-key get/put/remove mode must self-conflict")
	}
}

// TestAblationNoRefine: with refinement disabled (A1), lock statements
// stay generic and the Map table degenerates to modes that never admit
// same-instance parallelism.
func TestAblationNoRefine(t *testing.T) {
	res, err := synth.Synthesize(paperProgram(papersec.Fig1()),
		synth.Options{StopAfter: synth.StageNullChecks})
	if err != nil {
		t.Fatal(err)
	}
	out := ir.Print(res.Sections[0])
	if !strings.Contains(out, "map.lock(+)") {
		t.Errorf("A1 must keep generic locks:\n%s", out)
	}
	mapTbl := res.Tables["Map"]
	if len(mapTbl.Modes()) != 1 {
		t.Fatalf("generic Map table should have 1 mode, got %d", len(mapTbl.Modes()))
	}
	if mapTbl.Commute(0, 0) {
		t.Error("the generic whole-ADT mode must be exclusive")
	}
}

// TestMissingSpecError and friends: input validation.
func TestMissingSpecError(t *testing.T) {
	p := &synth.Program{
		Sections: []*ir.Atomic{papersec.Fig1()},
		Specs:    map[string]*core.Spec{}, // nothing registered
	}
	if _, err := synth.Synthesize(p, synth.DefaultOptions()); err == nil {
		t.Error("missing spec must be an error")
	}
}

func TestEmptyProgramError(t *testing.T) {
	if _, err := synth.Synthesize(&synth.Program{}, synth.DefaultOptions()); err == nil {
		t.Error("empty program must be an error")
	}
}

func TestUndeclaredReceiverError(t *testing.T) {
	sec := &ir.Atomic{
		Name: "bad",
		Body: ir.Block{&ir.Call{Recv: "ghost", Method: "get"}},
	}
	if _, err := synth.Synthesize(paperProgram(sec), synth.DefaultOptions()); err == nil {
		t.Error("undeclared receiver must be an error")
	}
}

// TestCustomClassOf: a caller-provided abstraction that splits two Sets
// into separate classes removes the need for LV2.
func TestCustomClassOf(t *testing.T) {
	p := paperProgram(papersec.Fig7())
	p.ClassOf = func(sec *ir.Atomic, v string) string {
		if v == "s1" || v == "s2" {
			return "Set$" + v // each variable its own class
		}
		return sec.ADTType(v)
	}
	res, err := synth.Synthesize(p, synth.Options{StopAfter: synth.StageInsert})
	if err != nil {
		t.Fatal(err)
	}
	out := ir.Print(res.Sections[0])
	if strings.Contains(out, "LV2") {
		t.Errorf("per-variable classes should not need LV2:\n%s", out)
	}
	if !strings.Contains(out, "LV(s1)") || !strings.Contains(out, "LV(s2)") {
		t.Errorf("both sets must still be locked:\n%s", out)
	}
}

// TestStableOutput: synthesis is deterministic.
func TestStableOutput(t *testing.T) {
	a := synthesizeAt(t, paperProgram(papersec.Fig1(), papersec.Fig7(), papersec.Fig9()), synth.StageRefine)
	b := synthesizeAt(t, paperProgram(papersec.Fig1(), papersec.Fig7(), papersec.Fig9()), synth.StageRefine)
	for i := range a.Sections {
		if ir.Print(a.Sections[i]) != ir.Print(b.Sections[i]) {
			t.Errorf("section %d differs across runs", i)
		}
	}
}

// TestInputNotMutated: the synthesizer works on clones.
func TestInputNotMutated(t *testing.T) {
	sec := papersec.Fig1()
	before := ir.Print(sec)
	synthesizeAt(t, paperProgram(sec), synth.StageRefine)
	if after := ir.Print(sec); after != before {
		t.Errorf("input section mutated:\n%s", after)
	}
}

// TestFig4TwoSets: the minimal S2PL example — two Sets locked with
// different refined sets ({size()} then {add(i)} generalized).
func TestFig4TwoSets(t *testing.T) {
	res := synthesizeAt(t, paperProgram(papersec.Fig4()), synth.StageRefine)
	out := ir.Print(res.Sections[0])
	if !strings.Contains(out, "lock2(x,y, {add(*),size()})") {
		// x and y share the Set class, so they are locked together with
		// the union of their future operations; i is killed by the
		// x.size() assignment, so add(i) widens to add(*).
		t.Errorf("Fig 4 synthesis unexpected:\n%s", out)
	}
}
