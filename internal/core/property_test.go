package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomSpec builds a random commutativity specification: a few methods
// of arity 0–2 with random conditions drawn from the algebra.
func randomSpec(rng *rand.Rand, name string) *Spec {
	n := 2 + rng.Intn(3)
	sigs := make([]MethodSig, n)
	for i := range sigs {
		sigs[i] = MethodSig{Name: fmt.Sprintf("m%d", i), Arity: rng.Intn(3)}
	}
	s := NewSpec(name, sigs...)
	cond := func(a1, a2 int) Cond {
		switch rng.Intn(5) {
		case 0:
			return Always
		case 1:
			return Never
		case 2:
			if a1 > 0 && a2 > 0 {
				return ArgsNE(rng.Intn(a1), rng.Intn(a2))
			}
			return Never
		case 3:
			if a1 > 0 && a2 > 0 {
				return OrCond(ArgsNE(rng.Intn(a1), rng.Intn(a2)), ArgsEQ(rng.Intn(a1), rng.Intn(a2)))
			}
			return Always
		default:
			if a1 > 0 && a2 > 0 {
				return AndCond(ArgsNE(rng.Intn(a1), rng.Intn(a2)), ArgsNE(rng.Intn(a1), rng.Intn(a2)))
			}
			return Never
		}
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s.Commute(sigs[i].Name, sigs[j].Name, cond(sigs[i].Arity, sigs[j].Arity))
		}
	}
	return s
}

// randomSets builds random symbolic sets over the spec's methods using
// variables {a, b}, constants and stars.
func randomSets(rng *rand.Rand, s *Spec) []SymSet {
	varNames := []string{"a", "b"}
	nSets := 1 + rng.Intn(3)
	out := make([]SymSet, 0, nSets)
	for i := 0; i < nSets; i++ {
		methods := s.Methods()
		nOps := 1 + rng.Intn(2)
		ops := make([]SymOp, 0, nOps)
		for j := 0; j < nOps; j++ {
			m := methods[rng.Intn(len(methods))]
			args := make([]SymArg, m.Arity)
			for k := range args {
				switch rng.Intn(3) {
				case 0:
					args[k] = Star()
				case 1:
					args[k] = VarArg(varNames[rng.Intn(len(varNames))])
				default:
					args[k] = ConstArg(rng.Intn(4))
				}
			}
			ops = append(ops, SymOpOf(m.Name, args...))
		}
		out = append(out, SymSetOf(ops...))
	}
	return out
}

// TestRandomTableSoundness is the property at the heart of the system:
// for random specifications and random symbolic sets, whenever the
// compiled table declares two modes commutative, EVERY pair of concrete
// operations covered by those modes commutes per the specification.
// (The converse — completeness — is not required: F_c may be
// conservative.)
func TestRandomTableSoundness(t *testing.T) {
	domain := []Value{0, 1, 2, 3, 4, 5}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng, fmt.Sprintf("R%d", seed))
		sets := randomSets(rng, spec)
		tbl := NewModeTable(spec, sets, TableOptions{Phi: NewPhi(1 + rng.Intn(3))})
		phi := tbl.Phi()

		// Concrete operation universe.
		var ops []Op
		for _, m := range spec.Methods() {
			switch m.Arity {
			case 0:
				ops = append(ops, NewOp(m.Name))
			case 1:
				for _, v := range domain {
					ops = append(ops, NewOp(m.Name, v))
				}
			case 2:
				for _, v := range domain[:3] {
					for _, w := range domain[:3] {
						ops = append(ops, NewOp(m.Name, v, w))
					}
				}
			}
		}

		modes := tbl.Modes()
		for i := range modes {
			for j := range modes {
				if !tbl.Commute(ModeID(i), ModeID(j)) {
					continue
				}
				for _, oa := range ops {
					if !modes[i].Covers(oa, phi) {
						continue
					}
					for _, ob := range ops {
						if !modes[j].Covers(ob, phi) {
							continue
						}
						if !spec.OpsCommute(oa, ob) {
							t.Fatalf("seed %d: F_c(%s, %s)=true but %s / %s conflict (spec cond %s)",
								seed, modes[i], modes[j], oa, ob, spec.Cond(oa.Method, ob.Method))
						}
					}
				}
			}
		}
	}
}

// TestRandomModeSelectionCoverage: for random tables, the mode selected
// for concrete values always covers the operations formed from those
// values — i.e. dynamic mode selection (§5.1) never under-locks.
func TestRandomModeSelectionCoverage(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng, fmt.Sprintf("C%d", seed))
		sets := randomSets(rng, spec)
		tbl := NewModeTable(spec, sets, TableOptions{Phi: NewPhi(1 + rng.Intn(4))})
		for _, set := range sets {
			ref := tbl.Set(set)
			vars := ref.Vars()
			for trial := 0; trial < 10; trial++ {
				env := map[string]Value{}
				vals := make([]Value, len(vars))
				for i, v := range vars {
					vals[i] = rng.Intn(6)
					env[v] = vals[i]
				}
				mode := ref.Mode(vals...)
				// Every concrete operation denoted by the set under env
				// (with * positions instantiated arbitrarily) must be
				// covered by the selected mode.
				for _, so := range set {
					args := make([]Value, len(so.Args))
					for i, a := range so.Args {
						switch a.Kind {
						case SymVar:
							args[i] = env[a.Var]
						case SymConst:
							args[i] = a.Val
						default:
							args[i] = rng.Intn(6) // any value for *
						}
					}
					op := NewOp(so.Method, args...)
					if !tbl.CoversOp(mode, op) {
						t.Fatalf("seed %d: mode %s for set %s env %v misses %s",
							seed, tbl.Mode(mode), set, env, op)
					}
				}
			}
		}
	}
}

// TestRandomModeSelectorsAgree: for random tables, sets and values —
// ints, strings and pointers — every way of selecting a mode names the
// same one: Txn.CachedMode1 ≡ SetRef.Mode1 ≡ the reference construction
// ModeForValues for sets of at most one variable, and SetRef.Mode2 ≡
// ModeForValues for sets of none or two. The Txn is one pooled-style
// transaction reused (and Reset) across every table of the run.
func TestRandomModeSelectorsAgree(t *testing.T) {
	ptrs := []*int{new(int), new(int), new(int)}
	value := func(rng *rand.Rand) Value {
		switch rng.Intn(3) {
		case 0:
			return rng.Intn(1000)
		case 1:
			return fmt.Sprintf("k%d", rng.Intn(1000))
		default:
			return ptrs[rng.Intn(len(ptrs))]
		}
	}
	tx := NewTxn()
	for seed := int64(200); seed < 260; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng, fmt.Sprintf("S%d", seed))
		sets := randomSets(rng, spec)
		tbl := NewModeTable(spec, sets, TableOptions{Phi: NewPhi(1 + rng.Intn(8))})
		for _, set := range sets {
			ref := tbl.Set(set)
			vars := ref.Vars()
			for trial := 0; trial < 20; trial++ {
				a, b := value(rng), value(rng)
				env := map[string]Value{}
				for i, name := range vars {
					env[name] = []Value{a, b}[i]
				}
				want := ModeForValues(set, tbl.Phi(), env).String()
				if len(vars) <= 1 {
					if got := tbl.Mode(ref.Mode1(a)).String(); got != want {
						t.Fatalf("seed %d set %s: Mode1(%v) = %s, want %s", seed, set, a, got, want)
					}
					if got := tbl.Mode(tx.CachedMode1(ref, a)).String(); got != want {
						t.Fatalf("seed %d set %s: CachedMode1(%v) = %s, want %s", seed, set, a, got, want)
					}
				}
				if len(vars) != 1 {
					if got := tbl.Mode(ref.Mode2(a, b)).String(); got != want {
						t.Fatalf("seed %d set %s: Mode2(%v, %v) = %s, want %s", seed, set, a, b, got, want)
					}
				}
			}
		}
		tx.Reset()
	}
}
