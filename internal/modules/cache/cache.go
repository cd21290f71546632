// Package cache implements the Cache benchmark of §6.1: Tomcat's
// ConcurrentCache, built from two Map instances — a bounded eden and a
// longterm store (a WeakHashMap in Tomcat; a plain map here, see
// DESIGN.md substitution 4). Get is not read-only: on an eden miss it
// promotes the longterm entry back into eden. Put flushes eden into
// longterm when the size bound is reached.
package cache

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
	Get(k int) core.Value
	Put(k int, v core.Value)
}

// Sections returns the two atomic procedures in IR.
//
//	get(k):  v = eden.get(k)
//	         if (v == null) { v = longterm.get(k); if (v != null) eden.put(k, v) }
//	put(k,v): s = eden.size()
//	          if (s >= limit) { longterm.putAll(eden); eden.clear() }
//	          eden.put(k, v)
func Sections() []*ir.Atomic {
	vars := func() []ir.Param {
		return []ir.Param{
			{Name: "eden", Type: "Map", IsADT: true, NonNull: true},
			{Name: "longterm", Type: "Map", IsADT: true, NonNull: true},
			{Name: "k", Type: "int"},
			{Name: "v", Type: "value"},
			{Name: "s", Type: "int"},
			{Name: "limit", Type: "int"},
		}
	}
	return []*ir.Atomic{
		{
			Name: "get",
			Vars: vars(),
			Body: ir.Block{
				&ir.Call{Recv: "eden", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "k"}}, Assign: "v"},
				&ir.If{
					Cond: ir.IsNull{Var: "v"},
					Then: ir.Block{
						&ir.Call{Recv: "longterm", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "k"}}, Assign: "v"},
						&ir.If{
							Cond: ir.NotNull{Var: "v"},
							Then: ir.Block{
								&ir.Call{Recv: "eden", Method: "put", Args: []ir.Expr{ir.VarRef{Name: "k"}, ir.VarRef{Name: "v"}}},
							},
						},
					},
				},
			},
		},
		{
			Name: "put",
			Vars: vars(),
			Body: ir.Block{
				&ir.Call{Recv: "eden", Method: "size", Assign: "s"},
				&ir.If{
					Cond: ir.OpaqueCond{Text: "s>=limit", Reads: []string{"s", "limit"}},
					Then: ir.Block{
						&ir.Call{Recv: "longterm", Method: "putAll", Args: []ir.Expr{ir.VarRef{Name: "eden"}}},
						&ir.Call{Recv: "eden", Method: "clear"},
					},
				},
				&ir.Call{Recv: "eden", Method: "put", Args: []ir.Expr{ir.VarRef{Name: "k"}, ir.VarRef{Name: "v"}}},
			},
		},
	}
}

// ClassOf splits eden and longterm into separate classes.
func ClassOf(sec *ir.Atomic, v string) string {
	switch v {
	case "eden":
		return "Map$eden"
	case "longterm":
		return "Map$longterm"
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
// limit is the cache's size parameter (§6.1 uses 5000K).
func New(policy string, limit int) Module {
	switch policy {
	case "ours":
		return newOurs(defaultPlan(), limit)
	case "global":
		return &global{eden: adt.NewHashMap(), longterm: adt.NewHashMap(), limit: limit}
	case "2pl":
		return &twoPL{
			eden: adt.NewHashMap(), longterm: adt.NewHashMap(), limit: limit,
			edenL: cc.NewInstanceLock(0), longL: cc.NewInstanceLock(1),
		}
	case "manual":
		return &manual{
			eden: adt.NewHashMap(), longterm: adt.NewHashMap(), limit: limit,
			stripes: cc.NewStriped(64),
		}
	default:
		panic(fmt.Sprintf("cache: unknown policy %q", policy))
	}
}

// Policies lists the variants in the order Fig 23 plots them.
func Policies() []string { return []string{"ours", "global", "2pl", "manual"} }

// ours executes the synthesized plan.
type ours struct {
	eden, longterm   *adt.HashMap
	edenSem, longSem *core.Semantic
	limit            int
	getEden, getLong func(core.Value) core.ModeID
	putEden          func(core.Value, core.Value) core.ModeID
	putLong          func(core.Value) core.ModeID
}

func newOurs(p *plan.Plan, limit int) *ours {
	o := &ours{eden: adt.NewHashMap(), longterm: adt.NewHashMap(), limit: limit}
	o.edenSem = core.NewSemantic(p.Table("Map$eden"))
	o.longSem = core.NewSemantic(p.Table("Map$longterm"))
	o.getEden = p.Ref(0, "eden").Binder1("k")
	o.getLong = p.Ref(0, "longterm").Binder1("k")
	o.putEden = p.Ref(1, "eden").Binder2("k", "v")
	o.putLong = p.Ref(1, "longterm").Binder1("eden")
	return o
}

// LockStats sums both map instances' acquisition statistics.
func (o *ours) LockStats() core.LockStats {
	a, b := o.edenSem.Stats(), o.longSem.Stats()
	return core.LockStats{
		FastPath: a.FastPath + b.FastPath,
		Slow:     a.Slow + b.Slow,
		Waits:    a.Waits + b.Waits,
	}
}

func (o *ours) Get(k int) core.Value {
	me := o.getEden(k)
	o.edenSem.Acquire(me)
	v := o.eden.Get(k)
	if v == nil {
		ml := o.getLong(k)
		o.longSem.Acquire(ml)
		v = o.longterm.Get(k)
		if v != nil {
			o.eden.Put(k, v)
		}
		o.longSem.Release(ml)
	}
	o.edenSem.Release(me)
	return v
}

func (o *ours) Put(k int, v core.Value) {
	// The put set is {clear(), put(k,v), size()}: both k and v select
	// the mode (v adds no discrimination — put/put commutes on distinct
	// keys alone — so the v-differing modes merge into shared counters).
	me := o.putEden(k, v)
	o.edenSem.Acquire(me)
	if o.eden.Size() >= o.limit {
		// The putAll set's variable is the eden pointer itself; its
		// runtime value is the instance identity.
		ml := o.putLong(o.edenSem.ID())
		o.longSem.Acquire(ml)
		o.longterm.PutAll(o.eden)
		o.eden.Clear()
		o.longSem.Release(ml)
	}
	o.eden.Put(k, v)
	o.edenSem.Release(me)
}

type global struct {
	mu             cc.GlobalLock
	eden, longterm *adt.HashMap
	limit          int
}

func (g *global) Get(k int) core.Value {
	g.mu.Enter()
	defer g.mu.Exit()
	v := g.eden.Get(k)
	if v == nil {
		v = g.longterm.Get(k)
		if v != nil {
			g.eden.Put(k, v)
		}
	}
	return v
}

func (g *global) Put(k int, v core.Value) {
	g.mu.Enter()
	defer g.mu.Exit()
	if g.eden.Size() >= g.limit {
		g.longterm.PutAll(g.eden)
		g.eden.Clear()
	}
	g.eden.Put(k, v)
}

type twoPL struct {
	eden, longterm *adt.HashMap
	edenL, longL   *cc.InstanceLock
	limit          int
}

func (t *twoPL) Get(k int) core.Value {
	var tx cc.TwoPL
	tx.Lock(t.edenL)
	defer tx.UnlockAll()
	v := t.eden.Get(k)
	if v == nil {
		tx.Lock(t.longL)
		v = t.longterm.Get(k)
		if v != nil {
			t.eden.Put(k, v)
		}
	}
	return v
}

func (t *twoPL) Put(k int, v core.Value) {
	var tx cc.TwoPL
	tx.Lock(t.edenL)
	defer tx.UnlockAll()
	if t.eden.Size() >= t.limit {
		tx.Lock(t.longL)
		t.longterm.PutAll(t.eden)
		t.eden.Clear()
	}
	t.eden.Put(k, v)
}

// manual is the hand-optimized variant (derived, like the paper's, from
// the foresight-based implementation of [9]): key-striped locks for the
// common path and a stop-the-world full-stripe sweep for the rare eden
// flush.
type manual struct {
	eden, longterm *adt.HashMap
	stripes        *cc.Striped
	limit          int
}

func (m *manual) Get(k int) core.Value {
	m.stripes.Lock(k)
	defer m.stripes.Unlock(k)
	v := m.eden.Get(k)
	if v == nil {
		v = m.longterm.Get(k)
		if v != nil {
			m.eden.Put(k, v)
		}
	}
	return v
}

func (m *manual) Put(k int, v core.Value) {
	//semlockvet:ignore guardedby -- deliberate racy pre-check: the size is re-read under LockAll before the flush commits
	if m.eden.Size() >= m.limit {
		// Rare path: take every stripe (in index order) and flush.
		m.stripes.LockAll()
		if m.eden.Size() >= m.limit {
			m.longterm.PutAll(m.eden)
			m.eden.Clear()
		}
		m.stripes.UnlockAll()
	}
	m.stripes.Lock(k)
	m.eden.Put(k, v)
	m.stripes.Unlock(k)
}
