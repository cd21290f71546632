// Package graph implements the Graph benchmark of §6.1 (the concurrent
// graph of Hawkins et al., PLDI 2012): a directed graph stored as two
// Multimap instances — successors and predecessors — with four atomic
// procedures: find successors, find predecessors, insert edge, remove
// edge. The two multimaps must be updated together, which is exactly the
// multi-ADT atomicity problem semantic locking solves.
package graph

import (
	"fmt"
	"sync"

	"repro/internal/adt"
	"repro/internal/adtspecs"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/modules/plan"
)

//semlockvet:file-ignore txndiscipline -- this file transcribes the synthesized plans by hand; it drives the raw mechanism on purpose

// Module is the benchmark interface.
type Module interface {
	FindSuccessors(n int) []core.Value
	FindPredecessors(n int) []core.Value
	InsertEdge(s, d int) bool
	RemoveEdge(s, d int) bool
}

// Sections returns the module's four atomic sections in IR. The
// successor and predecessor multimaps are distinct equivalence classes
// (distinct allocation sites under the paper's points-to abstraction),
// expressed here with ClassOf.
func Sections() []*ir.Atomic {
	vars := func() []ir.Param {
		return []ir.Param{
			{Name: "succs", Type: "Multimap", IsADT: true, NonNull: true},
			{Name: "preds", Type: "Multimap", IsADT: true, NonNull: true},
			{Name: "s", Type: "int"},
			{Name: "d", Type: "int"},
			{Name: "n", Type: "int"},
			{Name: "out", Type: "list"},
			{Name: "ok", Type: "boolean"},
		}
	}
	return []*ir.Atomic{
		{
			Name: "findSuccessors",
			Vars: vars(),
			Body: ir.Block{
				&ir.Call{Recv: "succs", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "n"}}, Assign: "out"},
			},
		},
		{
			Name: "findPredecessors",
			Vars: vars(),
			Body: ir.Block{
				&ir.Call{Recv: "preds", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "n"}}, Assign: "out"},
			},
		},
		{
			Name: "insertEdge",
			Vars: vars(),
			Body: ir.Block{
				&ir.Call{Recv: "succs", Method: "put", Args: []ir.Expr{ir.VarRef{Name: "s"}, ir.VarRef{Name: "d"}}, Assign: "ok"},
				&ir.If{
					Cond: ir.OpaqueCond{Text: "ok", Reads: []string{"ok"}},
					Then: ir.Block{
						&ir.Call{Recv: "preds", Method: "put", Args: []ir.Expr{ir.VarRef{Name: "d"}, ir.VarRef{Name: "s"}}},
					},
				},
			},
		},
		{
			Name: "removeEdge",
			Vars: vars(),
			Body: ir.Block{
				&ir.Call{Recv: "succs", Method: "remove", Args: []ir.Expr{ir.VarRef{Name: "s"}, ir.VarRef{Name: "d"}}, Assign: "ok"},
				&ir.If{
					Cond: ir.OpaqueCond{Text: "ok", Reads: []string{"ok"}},
					Then: ir.Block{
						&ir.Call{Recv: "preds", Method: "remove", Args: []ir.Expr{ir.VarRef{Name: "d"}, ir.VarRef{Name: "s"}}},
					},
				},
			},
		},
	}
}

// ClassOf splits the two multimaps into separate equivalence classes.
func ClassOf(sec *ir.Atomic, v string) string {
	switch v {
	case "succs":
		return "Multimap$succs"
	case "preds":
		return "Multimap$preds"
	}
	return sec.ADTType(v)
}

// BuildPlan synthesizes the module under opt, uncached; tests build
// their small-φ variants here.
func BuildPlan(opt plan.Options) *plan.Plan {
	return plan.MustBuild(Sections(), adtspecs.All(), ClassOf, opt)
}

// defaultPlan is the plan every constructor runs, synthesized once.
var defaultPlan = sync.OnceValue(func() *plan.Plan { return BuildPlan(plan.Options{}) })

// New creates the named variant: "ours", "global", "2pl" or "manual".
func New(policy string) Module {
	switch policy {
	case "ours":
		return newOurs(defaultPlan())
	case "global":
		return &global{succs: adt.NewMultimap(), preds: adt.NewMultimap()}
	case "2pl":
		return &twoPL{
			succs: adt.NewMultimap(), preds: adt.NewMultimap(),
			succsL: cc.NewInstanceLock(0), predsL: cc.NewInstanceLock(1),
		}
	case "manual":
		return &manual{
			succs: adt.NewMultimap(), preds: adt.NewMultimap(),
			succsS: cc.NewStriped(64), predsS: cc.NewStriped(64),
		}
	default:
		panic(fmt.Sprintf("graph: unknown policy %q", policy))
	}
}

// Policies lists the variants in the order Fig 22 plots them.
func Policies() []string { return []string{"ours", "global", "2pl", "manual"} }

// ours executes the synthesized plan: per-section refined modes on the
// two multimap instances, acquired in class-rank order.
type ours struct {
	succs, preds       *adt.Multimap
	succsSem, predsSem *core.Semantic

	// Mode selectors bound to each call site's natural argument order
	// (core.SetRef.Binder), so the (s,d)/(d,s) positions cannot be
	// confused with the sets' canonical variable order.
	findSucc func(core.Value) core.ModeID             // findSuccessors: succs {get(n)}
	findPred func(core.Value) core.ModeID             // findPredecessors: preds {get(n)}
	insSucc  func(core.Value, core.Value) core.ModeID // insertEdge: succs {put(s,d)}
	insPred  func(core.Value, core.Value) core.ModeID // insertEdge: preds {put(d,s)}
	remSucc  func(core.Value, core.Value) core.ModeID // removeEdge: succs {remove(s,d)}
	remPred  func(core.Value, core.Value) core.ModeID // removeEdge: preds {remove(d,s)}
}

// newOurs wires the module to p. Two-variable sets instantiate n²
// modes; the default MaxModes cap (4096) coarsens φ to 32 buckets,
// keeping the O(modes²) F_c computation fast while preserving ample
// key-pair parallelism.
func newOurs(p *plan.Plan) *ours {
	o := &ours{succs: adt.NewMultimap(), preds: adt.NewMultimap()}
	o.succsSem = core.NewSemantic(p.Table("Multimap$succs"))
	o.predsSem = core.NewSemantic(p.Table("Multimap$preds"))
	o.findSucc = p.Ref(0, "succs").Binder1("n")
	o.findPred = p.Ref(1, "preds").Binder1("n")
	o.insSucc = p.Ref(2, "succs").Binder2("s", "d")
	o.insPred = p.Ref(2, "preds").Binder2("d", "s")
	o.remSucc = p.Ref(3, "succs").Binder2("s", "d")
	o.remPred = p.Ref(3, "preds").Binder2("d", "s")
	return o
}

// LockStats sums both multimap instances' acquisition statistics.
func (o *ours) LockStats() core.LockStats {
	a, b := o.succsSem.Stats(), o.predsSem.Stats()
	return core.LockStats{
		FastPath: a.FastPath + b.FastPath,
		Slow:     a.Slow + b.Slow,
		Waits:    a.Waits + b.Waits,
	}
}

func (o *ours) FindSuccessors(n int) []core.Value {
	m := o.findSucc(n)
	o.succsSem.Acquire(m)
	out := o.succs.Get(n)
	o.succsSem.Release(m)
	return out
}

func (o *ours) FindPredecessors(n int) []core.Value {
	m := o.findPred(n)
	o.predsSem.Acquire(m)
	out := o.preds.Get(n)
	o.predsSem.Release(m)
	return out
}

// InsertEdge follows the synthesized plan: lock succs for the put,
// and lock preds (rank succs < preds) only on the branch that uses it.
func (o *ours) InsertEdge(s, d int) bool {
	ms := o.insSucc(s, d)
	o.succsSem.Acquire(ms)
	ok := o.succs.Put(s, d)
	if ok {
		mp := o.insPred(d, s)
		o.predsSem.Acquire(mp)
		o.preds.Put(d, s)
		o.predsSem.Release(mp)
	}
	o.succsSem.Release(ms)
	return ok
}

// RemoveEdge mirrors InsertEdge with remove modes.
func (o *ours) RemoveEdge(s, d int) bool {
	ms := o.remSucc(s, d)
	o.succsSem.Acquire(ms)
	ok := o.succs.Remove(s, d)
	if ok {
		mp := o.remPred(d, s)
		o.predsSem.Acquire(mp)
		o.preds.Remove(d, s)
		o.predsSem.Release(mp)
	}
	o.succsSem.Release(ms)
	return ok
}

type global struct {
	mu           cc.GlobalLock
	succs, preds *adt.Multimap
}

func (g *global) FindSuccessors(n int) []core.Value {
	g.mu.Enter()
	defer g.mu.Exit()
	return g.succs.Get(n)
}

func (g *global) FindPredecessors(n int) []core.Value {
	g.mu.Enter()
	defer g.mu.Exit()
	return g.preds.Get(n)
}

func (g *global) InsertEdge(s, d int) bool {
	g.mu.Enter()
	defer g.mu.Exit()
	if g.succs.Put(s, d) {
		g.preds.Put(d, s)
		return true
	}
	return false
}

func (g *global) RemoveEdge(s, d int) bool {
	g.mu.Enter()
	defer g.mu.Exit()
	if g.succs.Remove(s, d) {
		g.preds.Remove(d, s)
		return true
	}
	return false
}

type twoPL struct {
	succs, preds   *adt.Multimap
	succsL, predsL *cc.InstanceLock
}

func (t *twoPL) FindSuccessors(n int) []core.Value {
	var tx cc.TwoPL
	tx.Lock(t.succsL)
	defer tx.UnlockAll()
	return t.succs.Get(n)
}

func (t *twoPL) FindPredecessors(n int) []core.Value {
	var tx cc.TwoPL
	tx.Lock(t.predsL)
	defer tx.UnlockAll()
	return t.preds.Get(n)
}

func (t *twoPL) InsertEdge(s, d int) bool {
	var tx cc.TwoPL
	tx.Lock(t.succsL)
	tx.Lock(t.predsL)
	defer tx.UnlockAll()
	if t.succs.Put(s, d) {
		t.preds.Put(d, s)
		return true
	}
	return false
}

func (t *twoPL) RemoveEdge(s, d int) bool {
	var tx cc.TwoPL
	tx.Lock(t.succsL)
	tx.Lock(t.predsL)
	defer tx.UnlockAll()
	if t.succs.Remove(s, d) {
		t.preds.Remove(d, s)
		return true
	}
	return false
}

// manual is the hand-crafted variant: per-node stripes on each
// multimap, read locks for finds, and ordered two-stripe acquisition
// across the two stripe arrays for edge updates.
type manual struct {
	succs, preds   *adt.Multimap
	succsS, predsS *cc.Striped
}

func (m *manual) FindSuccessors(n int) []core.Value {
	m.succsS.RLock(n)
	defer m.succsS.RUnlock(n)
	return m.succs.Get(n)
}

func (m *manual) FindPredecessors(n int) []core.Value {
	m.predsS.RLock(n)
	defer m.predsS.RUnlock(n)
	return m.preds.Get(n)
}

func (m *manual) InsertEdge(s, d int) bool {
	m.succsS.Lock(s)
	m.predsS.Lock(d)
	defer m.predsS.Unlock(d)
	defer m.succsS.Unlock(s)
	if m.succs.Put(s, d) {
		m.preds.Put(d, s)
		return true
	}
	return false
}

func (m *manual) RemoveEdge(s, d int) bool {
	m.succsS.Lock(s)
	m.predsS.Lock(d)
	defer m.predsS.Unlock(d)
	defer m.succsS.Unlock(s)
	if m.succs.Remove(s, d) {
		m.preds.Remove(d, s)
		return true
	}
	return false
}
