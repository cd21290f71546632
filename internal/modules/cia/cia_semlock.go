// Code generated by semlockc; DO NOT EDIT.
//
// Semantic locking synthesized per Golan-Gueta et al., PPoPP 2015.

package cia

import (
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/modules/plan"
	"repro/internal/semadt"
)

// _semlockSections reconstructs the atomic sections the compiler saw.
func _semlockSections() []*ir.Atomic {
	return []*ir.Atomic{
		{
			Name: "computeIfAbsent",
			Vars: []ir.Param{
				{Name: "m", Type: "Map", IsADT: true, NonNull: true},
				{Name: "key", Type: "int", IsADT: false, NonNull: false},
			},
			Body: ir.Block{
				&ir.Call{Recv: "m", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "key"}}, Assign: "value"},
				&ir.If{
					Cond: ir.IsNull{Var: "value"},
					Then: ir.Block{
						&ir.Assign{Lhs: "value", Rhs: ir.Opaque{Text: "compute()", Reads: []string{"compute"}}},
						&ir.Call{Recv: "m", Method: "put", Args: []ir.Expr{ir.VarRef{Name: "key"}, ir.VarRef{Name: "value"}}, Assign: ""},
					},
				},
			},
		},
	}
}

// _semlockPlan is one plan of _semlockSections: its lock sites and
// allocation tables. The compiled functions are its methods, so each
// runs the plan its receiver was bound to.
type _semlockPlan struct {
	site0 core.SetRef
}

// _semlockBind resolves the lock sites against p, a plan synthesized
// from _semlockSections().
func _semlockBind(p *plan.Plan) *_semlockPlan {
	return &_semlockPlan{
		site0: p.Ref(0, "m"),
	}
}

// computeIfAbsent is the semantically locked form of the annotated input
// function, run under the plan _p binds.
func (_p *_semlockPlan) computeIfAbsent(m *semadt.Map, key int) []byte {
	var value core.Value
	_ = value
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(semadt.SemOf(m), _p.site0.Mode1(semadt.ID(key)), 0)
		value = m.Get(key)
		if value == nil {
			value = compute()
			m.Put(key, value)
		}
		tx.UnlockInstance(semadt.SemOf(m))
	})
	return value.([]byte)
}
