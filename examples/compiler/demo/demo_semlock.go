// Code generated by semlockc; DO NOT EDIT.
//
// Semantic locking synthesized per Golan-Gueta et al., PPoPP 2015.

package demo

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
			Name: "Process",
			Vars: []ir.Param{
				{Name: "m", Type: "Map", IsADT: true, NonNull: true},
				{Name: "q", Type: "Queue", IsADT: true, NonNull: true},
				{Name: "id", Type: "int", IsADT: false, NonNull: false},
				{Name: "x", Type: "int", IsADT: false, NonNull: false},
				{Name: "y", Type: "int", IsADT: false, NonNull: false},
				{Name: "flag", Type: "bool", IsADT: false, NonNull: false},
				{Name: "set", Type: "Set", IsADT: true, NonNull: false},
			},
			Body: ir.Block{
				&ir.Call{Recv: "m", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "id"}}, Assign: "set"},
				&ir.If{
					Cond: ir.IsNull{Var: "set"},
					Then: ir.Block{
						&ir.Assign{Lhs: "set", NewType: "Set"},
						&ir.Call{Recv: "m", Method: "put", Args: []ir.Expr{ir.VarRef{Name: "id"}, ir.VarRef{Name: "set"}}, Assign: ""},
					},
				},
				&ir.Call{Recv: "set", Method: "add", Args: []ir.Expr{ir.VarRef{Name: "x"}}, Assign: ""},
				&ir.Call{Recv: "set", Method: "add", Args: []ir.Expr{ir.VarRef{Name: "y"}}, Assign: ""},
				&ir.If{
					Cond: ir.OpaqueCond{Text: "flag", Reads: []string{"flag"}},
					Then: ir.Block{
						&ir.Call{Recv: "q", Method: "enqueue", Args: []ir.Expr{ir.VarRef{Name: "set"}}, Assign: ""},
						&ir.Call{Recv: "m", Method: "remove", Args: []ir.Expr{ir.VarRef{Name: "id"}}, Assign: ""},
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
	site0  core.SetRef
	site1  core.SetRef
	site2  core.SetRef
	tblSet *core.ModeTable
}

// _semlockBind resolves the lock sites against p, a plan synthesized
// from _semlockSections().
func _semlockBind(p *plan.Plan) *_semlockPlan {
	return &_semlockPlan{
		site0:  p.Ref(0, "m"),
		site1:  p.Ref(0, "set"),
		site2:  p.Ref(0, "q"),
		tblSet: p.Table("Set"),
	}
}

// Process is the semantically locked form of the annotated input
// function, run under the plan _p binds.
func (_p *_semlockPlan) Process(m *semadt.Map, q *semadt.Queue, id, x, y int, flag bool) {
	var set core.Value
	_ = set
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(semadt.SemOf(m), _p.site0.Mode1(semadt.ID(id)), 0)
		set = m.Get(id)
		if set == nil {
			set = semadt.NewSet(_p.tblSet)
			m.Put(id, set)
		}
		tx.Lock(semadt.SemOf(set), _p.site1.Mode(), 1)
		set.(*semadt.Set).Add(x)
		set.(*semadt.Set).Add(y)
		if flag {
			tx.Lock(semadt.SemOf(q), _p.site2.Mode1(semadt.ID(set)), 2)
			q.Enqueue(set)
			tx.UnlockInstance(semadt.SemOf(q))
			m.Remove(id)
		}
		tx.UnlockInstance(semadt.SemOf(m))
		tx.UnlockInstance(semadt.SemOf(set))
	})
}
