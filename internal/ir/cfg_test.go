package ir_test

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/papersec"
)

func callNodeByMethodArg(t *testing.T, g *ir.CFG, recv, method string) int {
	t.Helper()
	for _, id := range g.CallNodes() {
		c := g.Nodes[id].Stmt.(*ir.Call)
		if c.Recv == recv && c.Method == method {
			return id
		}
	}
	t.Fatalf("no call %s.%s in CFG", recv, method)
	return -1
}

func TestCFGFig1Shape(t *testing.T) {
	a := papersec.Fig1()
	g := ir.BuildCFG(a)
	calls := g.CallNodes()
	if len(calls) != 6 {
		t.Fatalf("Fig 1 has %d call nodes, want 6", len(calls))
	}
	get := callNodeByMethodArg(t, g, "map", "get")
	put := callNodeByMethodArg(t, g, "map", "put")
	remove := callNodeByMethodArg(t, g, "map", "remove")
	enq := callNodeByMethodArg(t, g, "queue", "enqueue")

	if !g.ReachesProperly(get, put) {
		t.Error("put must be reachable from get")
	}
	if g.ReachesProperly(put, get) {
		t.Error("get must not be reachable from put (no loop)")
	}
	if !g.ReachesProperly(enq, remove) {
		t.Error("remove must be reachable from enqueue")
	}
	if g.ReachesProperly(get, get) {
		t.Error("no self-reachability without a loop")
	}
}

func TestCFGFig9Loop(t *testing.T) {
	a := papersec.Fig9()
	g := ir.BuildCFG(a)
	get := callNodeByMethodArg(t, g, "map", "get")
	size := callNodeByMethodArg(t, g, "set", "size")
	if !g.ReachesProperly(size, size) {
		t.Error("set.size must reach itself through the loop (Fig 9)")
	}
	if !g.ReachesProperly(size, get) {
		t.Error("map.get must be reachable from set.size through the back edge")
	}
	// set is assigned between two dynamic occurrences of set.size.
	if !g.AssignedBetween(size, size, "set") {
		t.Error("set must be assigned between loop iterations of set.size")
	}
	// map is never reassigned.
	if g.AssignedBetween(get, size, "map") {
		t.Error("map is never assigned")
	}
}

func TestAssignedBetweenFig7(t *testing.T) {
	a := papersec.Fig7()
	g := ir.BuildCFG(a)
	get1 := callNodeByMethodArg(t, g, "m", "get") // first get (s1)
	add1 := callNodeByMethodArg(t, g, "s1", "add")
	add2 := callNodeByMethodArg(t, g, "s2", "add")

	// Example 3.2: s1 is changed between m.get(key1) and s1.add(1)
	// (the assignment happens at the get itself).
	if !g.AssignedBetween(get1, add1, "s1") {
		t.Error("s1 assigned between m.get and s1.add")
	}
	// s2 is assigned by the second get, between get1 and s2.add.
	if !g.AssignedBetween(get1, add2, "s2") {
		t.Error("s2 assigned between m.get(key1) and s2.add")
	}
	// The write of l' itself does not count: nothing assigns s1
	// strictly between s1.add(1) and q.enqueue(s1).
	enq := callNodeByMethodArg(t, g, "q", "enqueue")
	if g.AssignedBetween(add1, enq, "s1") {
		t.Error("s1 not assigned between s1.add and q.enqueue")
	}
}

func TestUsedAtOrAfter(t *testing.T) {
	a := papersec.Fig1()
	g := ir.BuildCFG(a)
	get := callNodeByMethodArg(t, g, "map", "get")
	enq := callNodeByMethodArg(t, g, "queue", "enqueue")
	addX := callNodeByMethodArg(t, g, "set", "add")

	if !g.UsedAtOrAfter(get, "map") {
		t.Error("map used at get itself")
	}
	if !g.UsedAtOrAfter(addX, "map") {
		t.Error("map.remove is after set.add")
	}
	if !g.UsedAtOrAfter(enq, "queue") {
		t.Error("queue used at enqueue itself")
	}
	if g.UsedAtOrAfter(enq, "set") {
		t.Error("set is not a receiver at or after queue.enqueue")
	}
}

func TestPostDominates(t *testing.T) {
	a := papersec.Fig1()
	g := ir.BuildCFG(a)
	get := callNodeByMethodArg(t, g, "map", "get")
	addX := callNodeByMethodArg(t, g, "set", "add")
	enq := callNodeByMethodArg(t, g, "queue", "enqueue")
	if !g.PostDominates(addX, get) {
		t.Error("set.add(x) post-dominates map.get")
	}
	if g.PostDominates(enq, get) {
		t.Error("queue.enqueue is conditional; it cannot post-dominate map.get")
	}
	if !g.PostDominates(get, get) {
		t.Error("a node post-dominates itself")
	}
}

func TestShortestDistance(t *testing.T) {
	g := ir.BuildCFG(papersec.Fig4())
	d := g.ShortestDistanceFromEntry()
	if d[g.Entry] != 0 {
		t.Error("entry distance must be 0")
	}
	size := callNodeByMethodArg(t, g, "x", "size")
	add := callNodeByMethodArg(t, g, "y", "add")
	if !(d[size] < d[add]) {
		t.Errorf("size (%d) should be closer to entry than add (%d)", d[size], d[add])
	}
	if d[g.Exit] <= d[add] {
		t.Error("exit must be after the last call")
	}
}

func TestClone(t *testing.T) {
	a := papersec.Fig1()
	c := a.Clone()
	if ir.Print(a) != ir.Print(c) {
		t.Error("clone must print identically")
	}
	// Mutating the clone must not affect the original.
	c.Body = append(ir.Block{&ir.Prologue{}}, c.Body...)
	if strings.Contains(ir.Print(a), "LOCAL_SET") {
		t.Error("mutating clone leaked into original")
	}
}

func TestPrintFig1(t *testing.T) {
	got := ir.Print(papersec.Fig1())
	want := `atomic fig1 {
  set=map.get(id);
  if(set==null) {
    set=new Set();
    map.put(id, set);
  }
  set.add(x);
  set.add(y);
  if(flag) {
    queue.enqueue(set);
    map.remove(id);
  }
}
`
	if got != want {
		t.Errorf("Print(Fig1) =\n%s\nwant\n%s", got, want)
	}
}

func TestPrintSynthetic(t *testing.T) {
	a := &ir.Atomic{Name: "s", Body: ir.Block{
		&ir.Prologue{},
		&ir.LV{Var: "map", Generic: true},
		&ir.LV2{Vars: []string{"s1", "s2"}, Generic: true},
		&ir.UnlockAllVar{Var: "q", Guarded: true},
		&ir.Epilogue{},
	}}
	got := ir.Print(a)
	for _, want := range []string{
		"LOCAL_SET.init(); // prologue",
		"LV(map);",
		"LV2(s1,s2);",
		"if(q!=null) q.unlockAll();",
		"foreach(t : LOCAL_SET) t.unlockAll(); // epilogue",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("printed output missing %q:\n%s", want, got)
		}
	}
}

func TestAtomicVarHelpers(t *testing.T) {
	a := papersec.Fig1()
	isADT := func(name string) bool { p, ok := a.Var(name); return ok && p.IsADT }
	if !isADT("map") || isADT("id") || isADT("nope") {
		t.Error("Var misclassifies ADT pointers")
	}
	if a.ADTType("set") != "Set" {
		t.Errorf("ADTType(set) = %q", a.ADTType("set"))
	}
	if p, ok := a.Var("queue"); !ok || !p.NonNull {
		t.Error("queue must be declared non-null")
	}
}
