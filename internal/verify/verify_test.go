package verify_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/adtspecs"
	"repro/internal/apps/gossip"
	"repro/internal/core"
	"repro/internal/gosrc"
	"repro/internal/ir"
	"repro/internal/modules/cache"
	"repro/internal/modules/graph"
	"repro/internal/papersec"
	"repro/internal/synth"
	"repro/internal/verify"
)

// mkInput builds a verify.Input over a hand-written section: the class
// of an ADT variable is its declared type, ranks come from the table.
func mkInput(sec *ir.Atomic, ranks map[string]int) verify.Input {
	return verify.Input{
		Section: sec,
		ClassOf: func(v string) (string, bool) {
			p, ok := sec.Var(v)
			if !ok || !p.IsADT {
				return "", false
			}
			return p.Type, true
		},
		Rank: func(key string) int {
			r, ok := ranks[key]
			if !ok {
				return -1
			}
			return r
		},
	}
}

func adt(name, typ string) ir.Param { return ir.Param{Name: name, Type: typ, IsADT: true} }

func lv(v string) *ir.LV { return &ir.LV{Var: v, Generic: true} }
func call(recv, method string, args ...ir.Expr) *ir.Call {
	return &ir.Call{Recv: recv, Method: method, Args: args}
}

// TestObligations drives the verifier over hand-broken (and a few
// deliberately tricky but correct) sections and asserts exactly the
// expected obligations fire, with counterexample paths.
func TestObligations(t *testing.T) {
	k := ir.VarRef{Name: "k"}
	getK := core.SymSetOf(core.SymOpOf("get", core.VarArg("k")))
	putAny := core.SymSetOf(core.SymOpOf("put", core.Star(), core.Star()))

	cases := []struct {
		name  string
		input func() verify.Input
		// want lists the expected obligations, sorted.
		want []verify.Obligation
		// msgHas must appear in some violation message.
		msgHas string
		// traceHas / traceNot check the first violation's rendered trace.
		traceHas string
		traceNot string
	}{
		{
			name: "uncovered call",
			input: func() verify.Input {
				sec := &ir.Atomic{Name: "t", Vars: []ir.Param{adt("m", "Map"), {Name: "k"}},
					Body: ir.Block{call("m", "get", k)}}
				return mkInput(sec, map[string]int{"Map": 0})
			},
			want:   []verify.Obligation{verify.Coverage},
			msgHas: `not dominated by a lock of "m"`,
		},
		{
			name: "lock only on one branch",
			input: func() verify.Input {
				sec := &ir.Atomic{Name: "t", Vars: []ir.Param{adt("m", "Map"), {Name: "k"}, {Name: "c"}},
					Body: ir.Block{
						&ir.If{Cond: ir.OpaqueCond{Text: "c", Reads: []string{"c"}}, Then: ir.Block{lv("m")}},
						call("m", "get", k),
					}}
				return mkInput(sec, map[string]int{"Map": 0})
			},
			want:   []verify.Obligation{verify.Coverage},
			msgHas: "not dominated",
			// The counterexample must take the lock-free arm.
			traceHas: "if(c)",
			traceNot: "lock",
		},
		{
			name: "held set does not cover the call",
			input: func() verify.Input {
				sec := &ir.Atomic{Name: "t", Vars: []ir.Param{adt("m", "Map"), {Name: "k"}},
					Body: ir.Block{&ir.LV{Var: "m", Set: putAny}, call("m", "get", k)}}
				return mkInput(sec, map[string]int{"Map": 0})
			},
			want:   []verify.Obligation{verify.Coverage},
			msgHas: "does not cover",
		},
		{
			name: "set variable reassigned after acquisition",
			input: func() verify.Input {
				sec := &ir.Atomic{Name: "t", Vars: []ir.Param{adt("m", "Map"), {Name: "k"}},
					Body: ir.Block{
						&ir.LV{Var: "m", Set: getK},
						&ir.Assign{Lhs: "k", Rhs: ir.Lit{Val: 7}},
						call("m", "get", k),
					}}
				return mkInput(sec, map[string]int{"Map": 0})
			},
			want:   []verify.Obligation{verify.Coverage},
			msgHas: "does not cover",
		},
		{
			name: "refined set covers its call",
			input: func() verify.Input {
				sec := &ir.Atomic{Name: "t", Vars: []ir.Param{adt("m", "Map"), {Name: "k"}},
					Body: ir.Block{&ir.LV{Var: "m", Set: getK}, call("m", "get", k)}}
				return mkInput(sec, map[string]int{"Map": 0})
			},
		},
		{
			name: "release then acquire",
			input: func() verify.Input {
				sec := &ir.Atomic{Name: "t", Vars: []ir.Param{adt("m", "Map"), adt("s", "Set"), {Name: "k"}},
					Body: ir.Block{
						lv("m"), call("m", "get", k),
						&ir.UnlockAllVar{Var: "m"},
						lv("s"), call("s", "add", k),
					}}
				return mkInput(sec, map[string]int{"Map": 0, "Set": 1})
			},
			want:     []verify.Obligation{verify.TwoPhase},
			msgHas:   "reachable after release",
			traceHas: "unlockAll",
		},
		{
			name: "inverted lock order",
			input: func() verify.Input {
				sec := &ir.Atomic{Name: "t", Vars: []ir.Param{adt("m", "Map"), adt("s", "Set"), {Name: "k"}},
					Body: ir.Block{
						lv("s"), call("s", "add", k),
						lv("m"), call("m", "get", k),
					}}
				return mkInput(sec, map[string]int{"Map": 0, "Set": 1})
			},
			want:   []verify.Obligation{verify.Ordering},
			msgHas: "rank 0 reachable after an acquisition at rank 1",
		},
		{
			name: "same-class alias released early",
			input: func() verify.Input {
				// The fig4 shape the verifier caught in the optimizer: s1
				// and s2 may alias, so releasing s1 may release s2's
				// instance before its use.
				sec := &ir.Atomic{Name: "t", Vars: []ir.Param{adt("s1", "Set"), adt("s2", "Set"), {Name: "i"}},
					Body: ir.Block{
						&ir.LV2{Vars: []string{"s1", "s2"}, Generic: true},
						&ir.Call{Recv: "s1", Method: "size", Assign: "i"},
						&ir.UnlockAllVar{Var: "s1"},
						call("s2", "add", ir.VarRef{Name: "i"}),
					}}
				return mkInput(sec, map[string]int{"Set": 0})
			},
			want:   []verify.Obligation{verify.Coverage},
			msgHas: `not dominated by a lock of "s2"`,
		},
		{
			name: "same-rank variables locked by separate statements",
			input: func() verify.Input {
				sec := &ir.Atomic{Name: "t", Vars: []ir.Param{adt("s1", "Set"), adt("s2", "Set"), {Name: "k"}},
					Body: ir.Block{
						lv("s1"), call("s1", "add", k),
						lv("s2"), call("s2", "add", k),
					}}
				return mkInput(sec, map[string]int{"Set": 0})
			},
			want:   []verify.Obligation{verify.Ordering},
			msgHas: "rank 0 reachable after an acquisition at rank 0",
		},
		{
			name: "same-rank variables locked as one LV2 group",
			input: func() verify.Input {
				sec := &ir.Atomic{Name: "t", Vars: []ir.Param{adt("s1", "Set"), adt("s2", "Set"), {Name: "k"}},
					Body: ir.Block{
						&ir.LV2{Vars: []string{"s1", "s2"}, Generic: true},
						call("s1", "add", k), call("s2", "add", k),
					}}
				return mkInput(sec, map[string]int{"Set": 0})
			},
		},
		{
			name: "branch-local higher-rank lock is not an order violation",
			input: func() verify.Input {
				// On the arm that locks y (rank 1), x is already held, so
				// the trailing LV(x) fires no acquisition there; on the
				// other arm nothing fired. A path-max join would flag
				// this; the per-variable domain must not.
				sec := &ir.Atomic{Name: "t", Vars: []ir.Param{adt("x", "Map"), adt("y", "Set"), {Name: "k"}, {Name: "c"}},
					Body: ir.Block{
						&ir.If{Cond: ir.OpaqueCond{Text: "c", Reads: []string{"c"}},
							Then: ir.Block{lv("x"), lv("y"), call("y", "add", k)}},
						lv("x"), call("x", "get", k),
					}}
				return mkInput(sec, map[string]int{"Map": 0, "Set": 1})
			},
		},
		{
			name: "relock of a reassigned variable in a loop",
			input: func() verify.Input {
				sec := &ir.Atomic{Name: "t", Vars: []ir.Param{adt("x", "Set"), {Name: "k"}, {Name: "c"}},
					Body: ir.Block{
						&ir.While{Cond: ir.OpaqueCond{Text: "c", Reads: []string{"c"}}, Body: ir.Block{
							&ir.Assign{Lhs: "x", NewType: "Set"},
							lv("x"), call("x", "add", k),
						}},
					}}
				return mkInput(sec, map[string]int{"Set": 0})
			},
			want:   []verify.Obligation{verify.Ordering},
			msgHas: "rank 0 reachable after an acquisition at rank 0",
		},
		{
			name: "call on wrapped class bypasses the global wrapper",
			input: func() verify.Input {
				sec := &ir.Atomic{Name: "t", Vars: []ir.Param{adt("w", "Wrap"), {Name: "k"}},
					Body: ir.Block{lv("w"), call("w", "f", k)}}
				in := mkInput(sec, map[string]int{"Wrap": 0})
				in.WrappedGlobal = func(key string) (string, bool) {
					if key == "Wrap" {
						return "g", true
					}
					return "", false
				}
				return in
			},
			want:   []verify.Obligation{verify.Coverage},
			msgHas: `bypasses its global wrapper variable "g"`,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.input()
			got := verify.Section(in)
			var obs []verify.Obligation
			for _, v := range got {
				obs = append(obs, v.Obligation)
			}
			sort.Slice(obs, func(i, j int) bool { return obs[i] < obs[j] })
			want := append([]verify.Obligation(nil), tc.want...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(obs) != len(want) {
				t.Fatalf("got %d violations %v, want %v:\n%s", len(got), obs, want, renderAll(got))
			}
			for i := range obs {
				if obs[i] != want[i] {
					t.Fatalf("obligations %v, want %v:\n%s", obs, want, renderAll(got))
				}
			}
			if len(got) == 0 {
				return
			}
			if tc.msgHas != "" && !anyMsgHas(got, tc.msgHas) {
				t.Errorf("no violation message contains %q:\n%s", tc.msgHas, renderAll(got))
			}
			if len(got[0].Trace.Stmts) == 0 {
				t.Errorf("violation has no counterexample path: %s", got[0].Error())
			}
			trace := got[0].Trace.String()
			if tc.traceHas != "" && !strings.Contains(trace, tc.traceHas) {
				t.Errorf("trace lacks %q:\n%s", tc.traceHas, trace)
			}
			if tc.traceNot != "" && strings.Contains(trace, tc.traceNot) {
				t.Errorf("trace should not contain %q:\n%s", tc.traceNot, trace)
			}
			// The trace must end at the offending statement.
			last := got[0].Trace.Stmts[len(got[0].Trace.Stmts)-1]
			if last != got[0].Stmt {
				t.Errorf("trace ends at %s, want %s", ir.StmtText(last), ir.StmtText(got[0].Stmt))
			}
		})
	}
}

func anyMsgHas(vs []*verify.Violation, sub string) bool {
	for _, v := range vs {
		if strings.Contains(v.Msg, sub) {
			return true
		}
	}
	return false
}

func renderAll(vs []*verify.Violation) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.Error())
		b.WriteString("\n")
	}
	return b.String()
}

// corpusProgram is one program of the example corpus.
type corpusProgram struct {
	name string
	p    *synth.Program
}

// corpus is the example corpus: the paper's figures and the library
// modules.
func corpus() []corpusProgram {
	return []corpusProgram{
		{"fig1", &synth.Program{Sections: []*ir.Atomic{papersec.Fig1()}, Specs: adtspecs.All()}},
		{"fig4", &synth.Program{Sections: []*ir.Atomic{papersec.Fig4()}, Specs: adtspecs.All()}},
		{"fig7", &synth.Program{Sections: []*ir.Atomic{papersec.Fig7()}, Specs: adtspecs.All()}},
		{"fig9", &synth.Program{Sections: []*ir.Atomic{papersec.Fig9()}, Specs: adtspecs.All()}},
		{"cache", &synth.Program{Sections: cache.Sections(), Specs: adtspecs.All(), ClassOf: cache.ClassOf}},
		{"graph", &synth.Program{Sections: graph.Sections(), Specs: adtspecs.All(), ClassOf: graph.ClassOf}},
		{"gossip", &synth.Program{Sections: gossip.Sections(), Specs: adtspecs.All(), ClassOf: gossip.ClassOf}},
		{"cia", &synth.Program{Sections: ciaSections(), Specs: adtspecs.All()}},
	}
}

// ciaSections parses the cia module's annotated source, the one
// definition of its section.
func ciaSections() []*ir.Atomic {
	f, err := gosrc.ParseFile("../modules/cia/section.go", nil)
	if err != nil {
		panic(err)
	}
	return []*ir.Atomic{f.Functions[0].Section}
}

// fresh clones a program's sections: Synthesize shares no state, but
// the sections are mutated by the pipeline, so each run needs fresh
// input.
func (pr corpusProgram) fresh() *synth.Program {
	fresh := &synth.Program{Specs: pr.p.Specs, ClassOf: pr.p.ClassOf}
	for _, sec := range pr.p.Sections {
		fresh.Sections = append(fresh.Sections, sec.Clone())
	}
	return fresh
}

// TestCorpusCertifies runs the verifier over every section of the
// example corpus at every pipeline stage, and asserts the certificate
// holds everywhere. It also reports the verifier's wall time over the
// corpus (recorded in EXPERIMENTS.md).
func TestCorpusCertifies(t *testing.T) {
	stages := []synth.Stage{
		synth.StageInsert, synth.StageRemoveRedundant, synth.StageElideLocalSet,
		synth.StageEarlyRelease, synth.StageNullChecks, synth.StageRefine,
	}
	sections := 0
	var verifyTime time.Duration
	for _, pr := range corpus() {
		for _, stage := range stages {
			res, err := synth.Synthesize(pr.fresh(), synth.Options{StopAfter: stage})
			if err != nil {
				t.Fatalf("%s@%d: Synthesize: %v", pr.name, stage, err)
			}
			start := time.Now()
			vs := synth.VerifyResult(res)
			verifyTime += time.Since(start)
			sections += len(res.Sections)
			for _, v := range vs {
				t.Errorf("%s@%d: %s", pr.name, stage, v.Error())
			}
		}
	}
	t.Logf("verified %d section instances in %v", sections, verifyTime)
}

// TestNullChecksStageIsUnrefined: ablation A1 — generic whole-ADT locks —
// is the pipeline stopped before refinement. For every corpus program,
// stopping after StageNullChecks yields the sections and the mode
// tables, mode for mode, in testdata/unrefined.golden: the output of
// running through StageRefine with the refinement pass skipped.
func TestNullChecksStageIsUnrefined(t *testing.T) {
	want, err := os.ReadFile("testdata/unrefined.golden")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, pr := range corpus() {
		res, err := synth.Synthesize(pr.fresh(), synth.Options{StopAfter: synth.StageNullChecks, Phi: core.NewPhi(4)})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		b.WriteString("== " + pr.name + "\n" + resultText(res))
	}
	if got := b.String(); got != string(want) {
		t.Errorf("StageNullChecks output differs from testdata/unrefined.golden:\n%s", got)
	}
}

// resultText prints a synthesis result's sections and, per class in key
// order, its mode table: each mode with its mechanism, its slot and the
// modes it commutes with.
func resultText(res *synth.Result) string {
	var b strings.Builder
	for _, sec := range res.Sections {
		b.WriteString(ir.Print(sec))
		b.WriteString("\n")
	}
	keys := make([]string, 0, len(res.Tables))
	for k := range res.Tables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		tbl := res.Tables[k]
		fmt.Fprintf(&b, "table %s: %d canonical, %d mechanisms\n", k, tbl.CanonicalCount(), tbl.NumMechanisms())
		for i, m := range tbl.Modes() {
			id := core.ModeID(i)
			fmt.Fprintf(&b, "  %d %v mech=%d slot=%d commutes:", i, m, tbl.MechanismOf(id), tbl.SlotOf(id))
			for j := range tbl.Modes() {
				if tbl.Commute(id, core.ModeID(j)) {
					fmt.Fprintf(&b, " %d", j)
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
