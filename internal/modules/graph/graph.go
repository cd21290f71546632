// Package graph implements the Graph benchmark of §6.1 (the concurrent
// graph of Hawkins et al., PLDI 2012): a directed graph stored as two
// Multimap instances — successors and predecessors — with four atomic
// procedures: find successors, find predecessors, insert edge, remove
// edge. The two multimaps must be updated together, which is exactly the
// multi-ADT atomicity problem semantic locking solves. The semantic
// locking (Ours) is what semlockc compiles from section.go into
// graph_semlock.go; Global, 2PL and Manual lock by hand.
package graph

import (
	"fmt"
	"sync"

	"repro/internal/adt"
	"repro/internal/adtspecs"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/modules/plan"
	"repro/internal/semadt"
)

//go:generate go run repro/cmd/semlockc -in section.go -out graph_semlock.go

// Module is the benchmark interface.
type Module interface {
	FindSuccessors(n int) []core.Value
	FindPredecessors(n int) []core.Value
	InsertEdge(s, d int) bool
	RemoveEdge(s, d int) bool
}

// BuildPlan synthesizes the compiled sections (section.go) under opt,
// uncached; tests build their small-φ variants here.
func BuildPlan(opt plan.Options) *plan.Plan {
	return plan.MustBuild(_semlockSections(), adtspecs.All(), _semlockClassOf, opt)
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

// ours runs the sections semlockc compiled (graph_semlock.go) under the
// plan it was built with. Two-variable sets instantiate n² modes; the
// default MaxModes cap (4096) coarsens φ to 32 buckets, keeping the
// O(modes²) F_c computation fast while preserving ample key-pair
// parallelism.
type ours struct {
	succs, preds *semadt.Multimap
	p            *_semlockPlan
}

func newOurs(p *plan.Plan) *ours {
	return &ours{
		succs: semadt.NewMultimap(p.Table("Multimap$succs")),
		preds: semadt.NewMultimap(p.Table("Multimap$preds")),
		p:     _semlockBind(p),
	}
}

// LockStats sums both multimap instances' acquisition statistics.
func (o *ours) LockStats() core.LockStats {
	a, b := o.succs.Sem().Stats(), o.preds.Sem().Stats()
	return core.LockStats{
		FastPath: a.FastPath + b.FastPath,
		Slow:     a.Slow + b.Slow,
		Waits:    a.Waits + b.Waits,
	}
}

func (o *ours) FindSuccessors(n int) []core.Value { return o.p.findSuccessors(o.succs, n) }

func (o *ours) FindPredecessors(n int) []core.Value { return o.p.findPredecessors(o.preds, n) }

func (o *ours) InsertEdge(s, d int) bool { return o.p.insertEdge(o.succs, o.preds, s, d) }

func (o *ours) RemoveEdge(s, d int) bool { return o.p.removeEdge(o.succs, o.preds, s, d) }

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
