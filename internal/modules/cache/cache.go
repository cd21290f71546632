// Package cache implements the Cache benchmark of §6.1: Tomcat's
// ConcurrentCache, built from two Map instances — a bounded eden and a
// longterm store (a WeakHashMap in Tomcat; a plain map here, see
// DESIGN.md substitution 4). Get is not read-only: on an eden miss it
// promotes the longterm entry back into eden. Put flushes eden into
// longterm when the size bound is reached. The semantic locking (Ours)
// is what semlockc compiles from section.go into cache_semlock.go;
// Global, 2PL and Manual lock by hand.
package cache

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

//go:generate go run repro/cmd/semlockc -in section.go -out cache_semlock.go

// Module is the benchmark interface.
type Module interface {
	Get(k int) core.Value
	Put(k int, v core.Value)
}

// BuildPlan synthesizes the compiled sections (section.go) under opt,
// uncached; tests build their small-φ variants here.
func BuildPlan(opt plan.Options) *plan.Plan {
	return plan.MustBuild(_semlockSections(), adtspecs.All(), _semlockClassOf, opt)
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

// ours runs the sections semlockc compiled (cache_semlock.go) under the
// plan it was built with.
type ours struct {
	eden, longterm *semadt.Map
	limit          int
	p              *_semlockPlan
}

func newOurs(p *plan.Plan, limit int) *ours {
	return &ours{
		eden:     semadt.NewMap(p.Table("Map$eden")),
		longterm: semadt.NewMap(p.Table("Map$longterm")),
		limit:    limit,
		p:        _semlockBind(p),
	}
}

// LockStats sums both map instances' acquisition statistics.
func (o *ours) LockStats() core.LockStats {
	a, b := o.eden.Sem().Stats(), o.longterm.Sem().Stats()
	return core.LockStats{
		FastPath: a.FastPath + b.FastPath,
		Slow:     a.Slow + b.Slow,
		Waits:    a.Waits + b.Waits,
	}
}

func (o *ours) Get(k int) core.Value { return o.p.get(o.eden, o.longterm, k) }

func (o *ours) Put(k int, v core.Value) { o.p.put(o.eden, o.longterm, k, v, o.limit) }

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
