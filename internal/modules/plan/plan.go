// Package plan builds the synthesized locking plans that the evaluation
// modules (§6.1) execute. Each module declares its atomic sections in
// IR, runs the full synthesis pipeline, and pulls out the compiled mode
// tables and the refined symbolic set locked at each section's lock
// sites. The hand-written module code then executes exactly the plan —
// and the module tests assert the printed plan matches, so the
// benchmarks measure the compiler's actual output.
package plan

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/synth"
)

// Plan is a synthesized program plus convenient accessors.
type Plan struct {
	Res *synth.Result
}

// Options mirror the ablation switches of the evaluation (DESIGN.md
// A1–A4). Module constructors run the zero value's plan; tests and the
// ablation benchmark build the others through each module's BuildPlan.
type Options struct {
	// AbstractValues is the φ range n (§5.1); 0 means the paper's 64.
	AbstractValues int
	// NoRefine keeps generic whole-ADT locks (ablation A1).
	NoRefine bool
	// NoPartition disables lock partitioning (ablation A3).
	NoPartition bool
	// MaxModes caps the per-class mode count (§5.3 opt. 3); 0 = default.
	MaxModes int
}

// Build synthesizes the sections with the given specs and options.
func Build(sections []*ir.Atomic, specs map[string]*core.Spec, classOf func(*ir.Atomic, string) string, opt Options) (*Plan, error) {
	n := opt.AbstractValues
	if n == 0 {
		n = core.DefaultAbstractValues
	}
	stop := synth.StageRefine
	if opt.NoRefine {
		stop = synth.StageNullChecks
	}
	res, err := synth.Synthesize(&synth.Program{
		Sections: sections,
		Specs:    specs,
		ClassOf:  classOf,
	}, synth.Options{
		StopAfter:           stop,
		Phi:                 core.NewPhi(n),
		MaxModes:            opt.MaxModes,
		DisablePartitioning: opt.NoPartition,
		Verify:              true,
	})
	if err != nil {
		return nil, err
	}
	return &Plan{Res: res}, nil
}

// MustBuild panics on error (module constructors with fixed sections).
func MustBuild(sections []*ir.Atomic, specs map[string]*core.Spec, classOf func(*ir.Atomic, string) string, opt Options) *Plan {
	p, err := Build(sections, specs, classOf, opt)
	if err != nil {
		panic(err)
	}
	return p
}

// Table returns the compiled mode table of a class.
func (p *Plan) Table(classKey string) *core.ModeTable {
	t := p.Res.Tables[classKey]
	if t == nil {
		panic(fmt.Sprintf("plan: no table for class %q", classKey))
	}
	return t
}

// Rank returns the lock-order rank of a class.
func (p *Plan) Rank(classKey string) int { return p.Res.Rank(classKey) }

// LockSet returns the symbolic set the synthesized section si locks for
// variable v (the set carried by its LV/LV2 statement). Generic locks
// return the whole-ADT set.
func (p *Plan) LockSet(si int, v string) core.SymSet {
	sec := p.Res.Sections[si]
	var found core.SymSet
	var ok bool
	var visit func(b ir.Block)
	visit = func(b ir.Block) {
		for _, s := range b {
			switch x := s.(type) {
			case *ir.LV:
				if x.Var == v && !ok {
					found, ok = p.resolve(si, v, x.Set, x.Generic), true
				}
			case *ir.LV2:
				for _, lv := range x.Vars {
					if lv == v && !ok {
						found, ok = p.resolve(si, v, x.Set, x.Generic), true
					}
				}
			case *ir.If:
				visit(x.Then)
				visit(x.Else)
			case *ir.While:
				visit(x.Body)
			}
		}
	}
	visit(sec.Body)
	if !ok {
		panic(fmt.Sprintf("plan: section %d has no lock of %q", si, v))
	}
	return found
}

func (p *Plan) resolve(si int, v string, set core.SymSet, generic bool) core.SymSet {
	if !generic {
		return set
	}
	key, _ := p.Res.Classes.ClassOfVar(si, v)
	return p.Res.Classes.ByKey[key].Spec.AllOpsSet()
}

// Ref returns the SetRef for the lock of variable v in section si,
// against the class's table — the handle module code uses on its hot
// path.
func (p *Plan) Ref(si int, v string) core.SetRef {
	key, ok := p.Res.Classes.ClassOfVar(si, v)
	if !ok {
		panic(fmt.Sprintf("plan: no class for %q in section %d", v, si))
	}
	return p.Table(key).Set(p.LockSet(si, v))
}

// Print renders section si (for plan-assertion tests).
func (p *Plan) Print(si int) string { return ir.Print(p.Res.Sections[si]) }
