// Package cia implements the ComputeIfAbsent benchmark of §6.1: the
// widely used (and widely mis-synchronized, [22]) pattern
//
//	if(!map.containsKey(key)) {
//	    value = ... // pure computation
//	    map.put(key, value);
//	}
//
// as one atomic section over a shared Map, in every synchronization
// variant of the evaluation: the semantic locking semlockc compiles from
// section.go into cia_semlock.go (Ours), a single global lock (Global),
// per-instance two-phase locking (2PL), 64-way lock striping (Manual),
// and the hand-crafted CHM-V8 style per-bucket computeIfAbsent (V8).
package cia

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

//go:generate go run repro/cmd/semlockc -in section.go -out cia_semlock.go

// ComputeSize is the paper's emulated computation: a 128-byte
// allocation.
const ComputeSize = 128

func compute() []byte { return make([]byte, ComputeSize) }

// Module is the benchmark interface. ComputeIfAbsent returns the value
// now bound to key (freshly computed or pre-existing).
type Module interface {
	ComputeIfAbsent(key int) []byte
}

// BuildPlan synthesizes the compiled section (section.go) under opt,
// uncached; the ablation tests and BenchmarkAblation build their
// variants here.
func BuildPlan(opt plan.Options) *plan.Plan {
	return plan.MustBuild(_semlockSections(), adtspecs.All(), nil, opt)
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

// ours runs the section semlockc compiled (cia_semlock.go) under the
// plan it was built with.
type ours struct {
	m *semadt.Map
	p *_semlockPlan
}

func newOurs(p *plan.Plan) *ours {
	return &ours{m: semadt.NewMap(p.Table("Map")), p: _semlockBind(p)}
}

// LockStats exposes the map instance's acquisition statistics.
func (o *ours) LockStats() core.LockStats { return o.m.Sem().Stats() }

func (o *ours) ComputeIfAbsent(key int) []byte { return o.p.computeIfAbsent(o.m, key) }

type globalCIA struct {
	m  *adt.HashMap
	mu cc.GlobalLock
}

// lockedBody is the section's body on a plain map, which each baseline
// runs under its own lock.
func lockedBody(m *adt.HashMap, key int) []byte {
	if v := m.Get(key); v != nil {
		return v.([]byte)
	}
	v := compute()
	m.Put(key, v)
	return v
}

func (g *globalCIA) ComputeIfAbsent(key int) []byte {
	g.mu.Enter()
	defer g.mu.Exit()
	return lockedBody(g.m, key)
}

type twoPLCIA struct {
	m    *adt.HashMap
	lock *cc.InstanceLock
}

func (t *twoPLCIA) ComputeIfAbsent(key int) []byte {
	var tx cc.TwoPL
	tx.Lock(t.lock)
	defer tx.UnlockAll()
	return lockedBody(t.m, key)
}

type manualCIA struct {
	m       *adt.HashMap
	stripes *cc.Striped
}

func (m *manualCIA) ComputeIfAbsent(key int) []byte {
	m.stripes.Lock(key)
	defer m.stripes.Unlock(key)
	return lockedBody(m.m, key)
}

type v8CIA struct {
	m *adt.HashMap
}

func (v *v8CIA) ComputeIfAbsent(key int) []byte {
	//semlockvet:ignore guardedby -- the whole point of the v8 variant: one internally atomic ComputeIfAbsent, no outer section
	return v.m.ComputeIfAbsent(key, func() core.Value { return compute() }).([]byte)
}
