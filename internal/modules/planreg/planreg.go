// Package planreg enumerates every synthesized locking plan in the
// tree. Each evaluation module's constructors run its default plan,
// synthesized once per process behind an unexported sync.OnceValue;
// whole-program checks — in particular the global lock-order embedding
// of verify.GlobalOrder that cmd/semlockvet drives — need all of them
// at once, under stable names. Adding a module with a synthesized plan
// means adding it here, which is what keeps "every certificate embeds
// globally" an honest claim.
package planreg

import (
	"repro/internal/apps/gossip"
	"repro/internal/apps/intruder"
	"repro/internal/modules/cache"
	"repro/internal/modules/cia"
	"repro/internal/modules/graph"
	"repro/internal/modules/plan"
	"repro/internal/synth"
	"repro/internal/verify"
)

// Entry is one registered plan under its domain name.
type Entry struct {
	Domain string
	Res    *synth.Result
}

// All builds every registered plan with default options, in domain
// order. Synthesis runs fresh here (a compile-time cost, a few
// milliseconds per module) through each module's BuildPlan, the one
// place that names the module's sections and class function.
func All() []Entry {
	return []Entry{
		{"apps/gossip", gossip.BuildPlan(plan.Options{}).Res},
		{"apps/intruder", intruder.BuildPlan(plan.Options{}).Res},
		{"modules/cache", cache.BuildPlan(plan.Options{}).Res},
		{"modules/cia", cia.BuildPlan(plan.Options{}).Res},
		{"modules/graph", graph.BuildPlan(plan.Options{}).Res},
	}
}

// GlobalOrder accumulates every registered plan into one program-wide
// lock-order graph, ready for Check.
func GlobalOrder() *verify.GlobalOrder {
	g := verify.NewGlobalOrder()
	for _, e := range All() {
		e.Res.ExportOrder(e.Domain, g)
	}
	return g
}
