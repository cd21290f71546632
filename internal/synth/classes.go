// Package synth implements the paper's synthesis algorithm: given client
// atomic sections (internal/ir) and per-ADT commutativity specifications
// (internal/core), it inserts semantic locking operations that guarantee
// atomicity and deadlock-freedom under the OS2PL protocol (§3), refines
// the locked symbolic sets by a backward analysis (§4), applies the
// optimizations of Appendix A, and compiles the locking modes (§5).
package synth

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/ir"
)

// Program is the synthesis input: all atomic sections that access the
// shared state (§2.1 requires they all be available), plus one
// commutativity specification per ADT class name.
type Program struct {
	Sections []*ir.Atomic
	// Specs maps an ADT type name (ir.Param.Type) to its commutativity
	// specification.
	Specs map[string]*core.Spec
	// ClassOf optionally overrides the pointer abstraction (§3.2): it
	// maps a pointer variable to its equivalence-class key. Variables
	// with equal keys are in the same class. The default abstraction
	// uses the variable's static ADT type, which the paper notes is a
	// valid abstraction ("or simply using the static types").
	ClassOf func(section *ir.Atomic, varName string) string
}

func (p *Program) classKey(sec *ir.Atomic, v string) string {
	if p.ClassOf != nil {
		return p.ClassOf(sec, v)
	}
	return sec.ADTType(v)
}

// Class is one equivalence class of pointer variables: a node of the
// restrictions-graph (§3.2).
type Class struct {
	Key  string
	Spec *core.Spec
	// Rank is the class's position in the total order <ts produced by
	// the topological sort (§3.3); filled in by computeOrder.
	Rank int
	// Wrapped marks a global-wrapper class introduced for a cyclic
	// component (§3.4); Members lists the original class keys it wraps
	// and GlobalVar the fresh global pointer (the paper's p_C).
	Wrapped   bool
	Members   []string
	GlobalVar string
}

// Classes is the pointer abstraction of a program: the set of
// equivalence classes and the per-section variable→class mapping.
type Classes struct {
	ByKey map[string]*Class
	// VarClass maps (section index, var name) to class key.
	varClass map[varKey]string
	// appearance records first-appearance order of class keys across
	// the program, used as the deterministic topological tie-break.
	appearance []string
}

type varKey struct {
	sec int
	v   string
}

// computeClasses builds the abstraction for all ADT pointer variables.
// Class keys are recorded in first-use order (the order their variables
// first appear as call receivers across the program), which serves as
// the deterministic tie-break of the topological sort and reproduces the
// paper's orders (map < set < queue for Fig 1).
func computeClasses(p *Program) (*Classes, error) {
	cs := &Classes{ByKey: make(map[string]*Class), varClass: make(map[varKey]string)}
	for si, sec := range p.Sections {
		for _, prm := range sec.Vars {
			if !prm.IsADT {
				continue
			}
			key := p.classKey(sec, prm.Name)
			if key == "" {
				return nil, fmt.Errorf("synth: variable %s.%s has no class (missing type?)", sec.Name, prm.Name)
			}
			if _, ok := cs.ByKey[key]; !ok {
				spec := p.Specs[sec.ADTType(prm.Name)]
				if spec == nil {
					return nil, fmt.Errorf("synth: no commutativity spec for ADT type %q (variable %s.%s)",
						sec.ADTType(prm.Name), sec.Name, prm.Name)
				}
				cs.ByKey[key] = &Class{Key: key, Spec: spec}
			}
			cs.varClass[varKey{si, prm.Name}] = key
		}
	}
	seen := make(map[string]bool)
	for si, sec := range p.Sections {
		walkCalls(sec.Body, func(c *ir.Call) {
			if key, ok := cs.ClassOfVar(si, c.Recv); ok && !seen[key] {
				seen[key] = true
				cs.appearance = append(cs.appearance, key)
			}
		})
	}
	for si, sec := range p.Sections {
		for _, prm := range sec.Vars {
			if !prm.IsADT {
				continue
			}
			if key, ok := cs.ClassOfVar(si, prm.Name); ok && !seen[key] {
				seen[key] = true
				cs.appearance = append(cs.appearance, key)
			}
		}
	}
	// Sanity: every call receiver must be a declared ADT variable.
	for si, sec := range p.Sections {
		var err error
		walkCalls(sec.Body, func(c *ir.Call) {
			if _, ok := cs.varClass[varKey{si, c.Recv}]; !ok && err == nil {
				err = fmt.Errorf("synth: receiver %q in section %s is not a declared ADT variable", c.Recv, sec.Name)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// ClassOfVar returns the class key of a variable in section index si.
func (cs *Classes) ClassOfVar(si int, v string) (string, bool) {
	k, ok := cs.varClass[varKey{si, v}]
	return k, ok
}

// Keys returns all class keys in first-appearance order.
func (cs *Classes) Keys() []string {
	return append([]string(nil), cs.appearance...)
}

// SortedKeys returns class keys sorted by rank (after ordering).
func (cs *Classes) SortedKeys() []string {
	keys := cs.Keys()
	sort.Slice(keys, func(i, j int) bool { return cs.ByKey[keys[i]].Rank < cs.ByKey[keys[j]].Rank })
	return keys
}

// walkCalls visits every Call in a block, recursing into branches and
// loops.
func walkCalls(b ir.Block, f func(*ir.Call)) {
	for _, s := range b {
		switch x := s.(type) {
		case *ir.Call:
			f(x)
		case *ir.If:
			walkCalls(x.Then, f)
			walkCalls(x.Else, f)
		case *ir.While:
			walkCalls(x.Body, f)
		}
	}
}
