package synth

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
)

// Stage selects how far the synthesis pipeline runs, so tests and tools
// can inspect the intermediate programs that the paper's figures show.
type Stage int

const (
	// StageInsert stops after the basic OS2PL insertion of §3.3
	// (Figs 13–15).
	StageInsert Stage = iota
	// StageRemoveRedundant additionally removes redundant LV statements
	// (Fig 26).
	StageRemoveRedundant
	// StageElideLocalSet additionally removes LOCAL_SET usage (Fig 27).
	StageElideLocalSet
	// StageEarlyRelease additionally moves unlockAll calls earlier
	// (Fig 28).
	StageEarlyRelease
	// StageNullChecks additionally removes redundant null checks
	// (Fig 17).
	StageNullChecks
	// StageRefine additionally refines the generic symbolic sets (§4),
	// producing the paper's final output (Fig 2).
	StageRefine
	// StageFuse additionally fuses adjacent lock statements into
	// ir.LockBatch nodes for the batched runtime acquisition (see
	// fuse.go). Fusion re-brackets the acquisition sequence without
	// changing it, so every earlier stage's output — the paper's
	// figures — is unaffected.
	StageFuse
	// StageOptimistic additionally rewrites sections certified read-only
	// into the hybrid optimistic/pessimistic envelope (ir.Optimistic,
	// see optimistic.go): the body runs lock-free with version-counter
	// observations, falling back to the unchanged pessimistic expansion
	// on validation failure. Opt-in: the default pipeline stops at
	// StageFuse, because an optimistic fast path acquires no locks and
	// therefore changes the runtime acquisition trace that schedule-level
	// tooling (telemetry schedule corpora, counter maps) predicts from
	// the plan.
	StageOptimistic
)

// Options configures synthesis.
type Options struct {
	// StopAfter truncates the pipeline. StageNullChecks keeps the
	// generic lock(+) sets — ablation A1.
	StopAfter Stage
	// Mode-table compilation parameters (§5); see core.TableOptions.
	Phi                 core.Phi
	MaxModes            int
	DisablePartitioning bool
	// Verify runs the internal/verify certificate checker over every
	// synthesized section as a post-pass; synthesis fails with the
	// counterexample paths if any OS2PL obligation is falsified.
	Verify bool
}

// DefaultOptions runs the full pipeline with the paper's evaluation
// parameters (φ onto 64 abstract values), including prologue fusion.
func DefaultOptions() Options {
	return Options{StopAfter: StageFuse, Verify: true}
}

// Result is the synthesis output.
type Result struct {
	// Sections are the transformed atomic sections, in input order,
	// with locking statements inserted.
	Sections []*ir.Atomic
	// Classes is the pointer abstraction, with ranks assigned.
	Classes *Classes
	// Graph is the restrictions-graph of the (possibly wrapped) program.
	Graph *Graph
	// PreWrapGraph is the restrictions-graph before cycle wrapping; it
	// equals Graph when no wrapping occurred.
	PreWrapGraph *Graph
	// Wrappers lists the global-wrapper ADTs introduced for cyclic
	// components (§3.4).
	Wrappers []*WrapperADT
	// Tables holds the compiled locking modes per locked class (§5).
	Tables map[string]*core.ModeTable
}

// WrapperADT is the public view of a global wrapper.
type WrapperADT struct {
	Key       string
	GlobalVar string
	Members   []string
	Spec      *core.Spec
}

// Rank returns the lock-order rank of a class key.
func (r *Result) Rank(classKey string) int {
	c, ok := r.Classes.ByKey[classKey]
	if !ok {
		return -1
	}
	return c.Rank
}

// Synthesize runs the compiler on a program: §3's OS2PL insertion
// (including cycle wrapping), Appendix A's optimizations, §4's
// refinement, and §5's locking-mode compilation.
func Synthesize(p *Program, opts Options) (*Result, error) {
	if len(p.Sections) == 0 {
		return nil, fmt.Errorf("synth: no atomic sections")
	}
	if err := ir.ValidateAll(p.Sections); err != nil {
		return nil, fmt.Errorf("synth: invalid input: %w", err)
	}
	cs, err := computeClasses(p)
	if err != nil {
		return nil, err
	}
	g := buildRestrictions(p, cs)
	preWrap := g

	p2, wrappers := wrapCycles(p, cs, g)
	if len(wrappers) > 0 {
		cs, err = computeClasses(p2)
		if err != nil {
			return nil, fmt.Errorf("synth: after wrapping: %w", err)
		}
		g = buildRestrictions(p2, cs)
	}

	order, err := topoOrder(g, cs.appearance)
	if err != nil {
		return nil, err
	}
	for rank, key := range order {
		cs.ByKey[key].Rank = rank
	}
	res := &Result{Classes: cs, Graph: g, PreWrapGraph: preWrap}
	for _, w := range wrappers {
		res.Wrappers = append(res.Wrappers, &WrapperADT{
			Key: w.Key, GlobalVar: w.GlobalVar, Members: w.Members, Spec: w.Spec,
		})
		c := cs.ByKey[w.Key]
		c.Wrapped = true
		c.Members = w.Members
		c.GlobalVar = w.GlobalVar
	}

	for si, sec := range p2.Sections {
		out := insertLocking(si, sec, cs)
		if opts.StopAfter >= StageRemoveRedundant {
			removeRedundantLV(out)
		}
		if opts.StopAfter >= StageElideLocalSet {
			elideLocalSet(si, out, cs)
		}
		if opts.StopAfter >= StageEarlyRelease {
			earlyRelease(si, out, cs)
		}
		if opts.StopAfter >= StageNullChecks {
			removeNullChecks(out)
		}
		if opts.StopAfter >= StageRefine {
			refineSection(si, out, cs)
		}
		res.Sections = append(res.Sections, out)
	}

	res.Tables = buildTables(res, cs, opts)

	// Fusion runs after buildTables (which collects sets from LV/LV2
	// statements) and before verification, so every fused section is
	// certified in its fused form — the verifier expands each LockBatch
	// into its per-set obligations.
	if opts.StopAfter >= StageFuse {
		for si, sec := range res.Sections {
			fuseLockBatches(si, sec, cs)
		}
	}

	// The optimistic rewrite runs last, after fusion, so the fallback
	// block is exactly the section the pessimistic pipeline would have
	// emitted (batched prologue included) and the observe statements
	// mirror the final lock statements one-for-one. Verification then
	// certifies the envelope itself: the fallback under the three OS2PL
	// obligations, the body under the read-only obligations.
	if opts.StopAfter >= StageOptimistic {
		for si, sec := range res.Sections {
			makeOptimistic(si, sec, cs)
		}
	}

	if opts.Verify {
		if violations := VerifyResult(res); len(violations) > 0 {
			return nil, verifyError(violations)
		}
	}
	return res, nil
}

// refineSection replaces each lock statement's generic set with the
// refined symbolic set holding at its program point (§4), with
// same-method operations merged (Fig 2's {add(*)}).
func refineSection(si int, sec *ir.Atomic, cs *Classes) {
	cfg := ir.BuildCFG(sec)
	ref := refineSets(si, cs, cfg, true)
	classOf := func(v string) string {
		k, _ := cs.ClassOfVar(si, v)
		return k
	}
	walkStmts(sec.Body, func(s ir.Stmt) {
		id, ok := cfg.NodeOf(s)
		if !ok {
			return
		}
		switch x := s.(type) {
		case *ir.LV:
			if set := ref.At(id, classOf(x.Var)); len(set) > 0 {
				x.Set = set
				x.Generic = false
			}
		case *ir.LV2:
			if set := ref.At(id, classOf(x.Vars[0])); len(set) > 0 {
				x.Set = set
				x.Generic = false
			}
		}
	})
}

// buildTables compiles one mode table per locked class from the
// symbolic sets its lock statements use (§5).
func buildTables(res *Result, cs *Classes, opts Options) map[string]*core.ModeTable {
	setsByClass := make(map[string][]core.SymSet)
	for si, sec := range res.Sections {
		classOf := func(v string) string {
			k, _ := cs.ClassOfVar(si, v)
			return k
		}
		walkStmts(sec.Body, func(s ir.Stmt) {
			var v string
			var set core.SymSet
			var generic bool
			switch x := s.(type) {
			case *ir.LV:
				v, set, generic = x.Var, x.Set, x.Generic
			case *ir.LV2:
				v, set, generic = x.Vars[0], x.Set, x.Generic
			default:
				return
			}
			key := classOf(v)
			if generic {
				set = cs.ByKey[key].Spec.AllOpsSet()
			}
			setsByClass[key] = append(setsByClass[key], set)
		})
	}
	tables := make(map[string]*core.ModeTable, len(setsByClass))
	for key, sets := range setsByClass {
		tables[key] = core.NewModeTable(cs.ByKey[key].Spec, sets, core.TableOptions{
			Phi:                 opts.Phi,
			MaxModes:            opts.MaxModes,
			DisablePartitioning: opts.DisablePartitioning,
		})
	}
	return tables
}

// RefinedSetsAtCalls runs the §4 analysis on an original (untransformed)
// section and returns, for each Call statement, the per-class symbolic
// sets holding just before it — the data shown in Fig 18.
func RefinedSetsAtCalls(p *Program, si int, mergeSameMethod bool) (map[*ir.Call]map[string]core.SymSet, error) {
	cs, err := computeClasses(p)
	if err != nil {
		return nil, err
	}
	sec := p.Sections[si]
	cfg := ir.BuildCFG(sec)
	ref := refineSets(si, cs, cfg, mergeSameMethod)
	out := make(map[*ir.Call]map[string]core.SymSet)
	for _, id := range cfg.CallNodes() {
		c := cfg.Nodes[id].Stmt.(*ir.Call)
		m := make(map[string]core.SymSet, len(ref.in[id]))
		for k, v := range ref.in[id] {
			m[k] = v
		}
		out[c] = m
	}
	return out, nil
}
