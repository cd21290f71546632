// Package cia implements the ComputeIfAbsent benchmark of §6.1: the
// widely used (and widely mis-synchronized, [22]) pattern
//
//	if(!map.containsKey(key)) {
//	    value = ... // pure computation
//	    map.put(key, value);
//	}
//
// as one atomic section over a shared Map, in every synchronization
// variant of the evaluation: the synthesized semantic locking (Ours),
// a single global lock (Global), per-instance two-phase locking (2PL),
// 64-way lock striping (Manual), and the hand-crafted CHM-V8 style
// per-bucket computeIfAbsent (V8).
package cia

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

// ComputeSize is the paper's emulated computation: a 128-byte
// allocation.
const ComputeSize = 128

func compute() []byte { return make([]byte, ComputeSize) }

// Module is the benchmark interface. ComputeIfAbsent returns the value
// now bound to key (freshly computed or pre-existing).
type Module interface {
	ComputeIfAbsent(key int) []byte
}

// Section is the benchmark's atomic section in IR — the exact input the
// synthesizer compiles. It is the get/put rendering of the pattern
// (equivalent to the containsKey form, and what a computeIfAbsent that
// returns the value executes):
//
//	value = map.get(key);
//	if(value == null) { value = compute(); map.put(key, value); }
func Section() *ir.Atomic {
	return &ir.Atomic{
		Name: "computeIfAbsent",
		Vars: []ir.Param{
			{Name: "map", Type: "Map", IsADT: true, NonNull: true},
			{Name: "key", Type: "int"},
			{Name: "value", Type: "bytes"},
		},
		Body: ir.Block{
			&ir.Call{Recv: "map", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "key"}}, Assign: "value"},
			&ir.If{
				Cond: ir.IsNull{Var: "value"},
				Then: ir.Block{
					&ir.Assign{Lhs: "value", Rhs: ir.Opaque{Text: "compute()"}},
					&ir.Call{Recv: "map", Method: "put", Args: []ir.Expr{ir.VarRef{Name: "key"}, ir.VarRef{Name: "value"}}},
				},
			},
		},
	}
}

// BuildPlan synthesizes the section under opt, uncached; the ablation
// tests and BenchmarkAblation build their variants here.
func BuildPlan(opt plan.Options) *plan.Plan {
	return plan.MustBuild([]*ir.Atomic{Section()}, adtspecs.All(), nil, opt)
}

// defaultPlan is the plan every constructor runs, synthesized once.
var defaultPlan = sync.OnceValue(func() *plan.Plan { return BuildPlan(plan.Options{}) })

// New creates the named variant: "ours", "global", "2pl", "manual" or
// "v8".
func New(policy string) Module {
	switch policy {
	case "ours":
		return newOurs(defaultPlan())
	case "global":
		return &globalCIA{m: adt.NewHashMap()}
	case "2pl":
		return &twoPLCIA{m: adt.NewHashMap(), lock: cc.NewInstanceLock(0)}
	case "manual":
		return &manualCIA{m: adt.NewHashMap(), stripes: cc.NewStriped(64)}
	case "v8":
		return &v8CIA{m: adt.NewHashMap()}
	default:
		panic(fmt.Sprintf("cia: unknown policy %q", policy))
	}
}

// Policies lists the variants in the order Fig 21 plots them.
func Policies() []string { return []string{"ours", "global", "2pl", "manual", "v8"} }

// ours executes the synthesized plan: one semantic lock on the map in
// the mode selected by φ(key) for the refined set
// {containsKey(key), put(key,*)}.
type ours struct {
	m   *adt.HashMap
	sem *core.Semantic
	ref core.SetRef
}

func newOurs(p *plan.Plan) *ours {
	o := &ours{m: adt.NewHashMap()}
	o.sem = core.NewSemantic(p.Table("Map"))
	o.ref = p.Ref(0, "map")
	return o
}

// LockStats exposes the map instance's acquisition statistics.
func (o *ours) LockStats() core.LockStats { return o.sem.Stats() }

func (o *ours) ComputeIfAbsent(key int) []byte {
	// Mode1 also serves ablation A1's generic set: a constant set's one
	// mode.
	mode := o.ref.Mode1(key)
	o.sem.Acquire(mode)
	defer o.sem.Release(mode)
	if v := o.m.Get(key); v != nil {
		return v.([]byte)
	}
	v := compute()
	o.m.Put(key, v)
	return v
}

type globalCIA struct {
	m  *adt.HashMap
	mu cc.GlobalLock
}

func (g *globalCIA) ComputeIfAbsent(key int) []byte {
	g.mu.Enter()
	defer g.mu.Exit()
	if v := g.m.Get(key); v != nil {
		return v.([]byte)
	}
	v := compute()
	g.m.Put(key, v)
	return v
}

type twoPLCIA struct {
	m    *adt.HashMap
	lock *cc.InstanceLock
}

func (t *twoPLCIA) ComputeIfAbsent(key int) []byte {
	var tx cc.TwoPL
	tx.Lock(t.lock)
	defer tx.UnlockAll()
	if v := t.m.Get(key); v != nil {
		return v.([]byte)
	}
	v := compute()
	t.m.Put(key, v)
	return v
}

type manualCIA struct {
	m       *adt.HashMap
	stripes *cc.Striped
}

func (m *manualCIA) ComputeIfAbsent(key int) []byte {
	m.stripes.Lock(key)
	defer m.stripes.Unlock(key)
	if v := m.m.Get(key); v != nil {
		return v.([]byte)
	}
	v := compute()
	m.m.Put(key, v)
	return v
}

type v8CIA struct {
	m *adt.HashMap
}

func (v *v8CIA) ComputeIfAbsent(key int) []byte {
	//semlockvet:ignore guardedby -- the whole point of the v8 variant: one internally atomic ComputeIfAbsent, no outer section
	return v.m.ComputeIfAbsent(key, func() core.Value { return compute() }).([]byte)
}
