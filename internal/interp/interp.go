// Package interp executes synthesized atomic sections (the output of
// internal/synth) against real ADT instances under the semantic-locking
// runtime. It is the end-to-end bridge of the reproduction: the same
// locking statements the compiler prints in Fig 2 are interpreted into
// core.Txn lock/unlock calls, standard operations dispatch to the
// linearizable containers of internal/adt, and — in checked mode — every
// operation is asserted against the held modes (S2PL) and the OS2PL
// order.
//
//semlockvet:file-ignore guardedby -- the executor IS the lock manager: Impl.Invoke bodies run under the semantic locks runStmt acquires from the synthesized plan, in checked mode asserted per-operation
package interp

import (
	"fmt"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/synth"
)

// Impl is a dynamic ADT implementation: a method dispatcher over the
// containers in internal/adt (or any user-supplied state).
type Impl interface {
	Invoke(method string, args []core.Value) core.Value
}

// Instance pairs an ADT implementation with its semantic lock.
type Instance struct {
	Impl Impl
	Sem  *core.Semantic
	// Class is the equivalence-class key the instance belongs to.
	Class string
}

// Executor runs the sections of one synthesis result.
type Executor struct {
	Res *synth.Result
	// Registry creates implementations by ADT type name ("Map", "Set",
	// "Queue", ...). DefaultRegistry covers internal/adt.
	Registry map[string]func() Impl
	// Checked runs transactions with protocol checking (panics on S2PL
	// / ordering violations — used by the race tests).
	Checked bool
	// EvalOpaque evaluates ir.Opaque expressions and ir.OpaqueCond
	// conditions; optional. Receives the expression text and the
	// environment.
	EvalOpaque func(text string, env map[string]core.Value) core.Value

	wrappers map[string]*Instance // global wrapper instances by class key
}

// NewExecutor builds an executor with the default registry.
func NewExecutor(res *synth.Result, checked bool) *Executor {
	e := &Executor{Res: res, Registry: DefaultRegistry(), Checked: checked,
		wrappers: make(map[string]*Instance)}
	for _, w := range res.Wrappers {
		e.wrappers[w.Key] = &Instance{
			Impl:  &wrapperImpl{w: w},
			Sem:   core.NewSemantic(res.Tables[w.Key]),
			Class: w.Key,
		}
	}
	return e
}

// NewInstance creates an ADT instance of the given class key, with its
// semantic lock drawn from the class's compiled mode table. For a class
// whose key differs from its ADT type (custom abstraction), pass the
// type name too.
func (e *Executor) NewInstance(classKey, typeName string) *Instance {
	mk := e.Registry[typeName]
	if mk == nil {
		panic(fmt.Sprintf("interp: no implementation registered for ADT type %q", typeName))
	}
	tbl := e.Res.Tables[classKey]
	if tbl == nil {
		// Class never locked anywhere (e.g. unused); give it an
		// exclusive single-mode table so instances still work.
		cls := e.Res.Classes.ByKey[classKey]
		tbl = core.NewModeTable(cls.Spec, []core.SymSet{cls.Spec.AllOpsSet()}, core.TableOptions{})
	}
	return &Instance{Impl: mk(), Sem: core.NewSemantic(tbl), Class: classKey}
}

// OpHook observes every ADT operation a run performs: the instance's
// semantic-lock id, the operation, and its result. Used by the
// serializability tests to record transaction logs.
type OpHook func(instID uint64, op core.Op, result core.Value)

// Run executes section si with the given initial environment. ADT
// variables must be bound to *Instance values (or nil). The environment
// is mutated in place; the transaction's locks are always released, even
// on panic.
func (e *Executor) Run(si int, env map[string]core.Value) error {
	return e.RunWithHook(si, env, nil)
}

// RunWithHook is Run with an operation observer (nil behaves like Run).
func (e *Executor) RunWithHook(si int, env map[string]core.Value, hook OpHook) error {
	var tx *core.Txn
	if e.Checked {
		tx = core.NewCheckedTxn()
	} else {
		tx = core.NewTxn()
	}
	return e.RunWithTxn(si, env, tx, hook)
}

// RunWithTxn is RunWithHook with a caller-supplied transaction, so
// harnesses can inspect the transaction afterwards (e.g. the recorded
// acquisition order of a checked transaction). The transaction must be
// fresh or Reset; its locks are released before returning.
func (e *Executor) RunWithTxn(si int, env map[string]core.Value, tx *core.Txn, hook OpHook) (err error) {
	sec := e.Res.Sections[si]
	// Bind wrapper globals.
	for key, inst := range e.wrappers {
		gv := e.Res.Classes.ByKey[key].GlobalVar
		if _, ok := sec.Var(gv); ok {
			env[gv] = inst
		}
	}
	defer tx.UnlockAll()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("interp: section %s: %v", sec.Name, r)
		}
	}()
	e.runBlock(si, sec, sec.Body, env, tx, hook)
	return nil
}

func (e *Executor) runBlock(si int, sec *ir.Atomic, b ir.Block, env map[string]core.Value, tx *core.Txn, hook OpHook) {
	for _, s := range b {
		e.runStmt(si, sec, s, env, tx, hook)
	}
}

func (e *Executor) runStmt(si int, sec *ir.Atomic, s ir.Stmt, env map[string]core.Value, tx *core.Txn, hook OpHook) {
	switch x := s.(type) {
	case *ir.Prologue:
		// LOCAL_SET is the transaction's held-set; nothing to do.
	case *ir.Epilogue:
		tx.UnlockAll()
	case *ir.LV:
		inst := instOf(env[x.Var])
		if inst == nil {
			return
		}
		mode := e.modeFor(inst, x.Set, x.Generic, env)
		tx.Lock(inst.Sem, mode, e.Res.Rank(inst.Class))
	case *ir.LV2:
		var insts []*core.Semantic
		var mode core.ModeID
		var rank int
		have := false
		for _, v := range x.Vars {
			inst := instOf(env[v])
			if inst == nil {
				continue
			}
			if !have {
				mode = e.modeFor(inst, x.Set, x.Generic, env)
				rank = e.Res.Rank(inst.Class)
				have = true
			}
			insts = append(insts, inst.Sem)
		}
		if have {
			tx.LockOrdered(rank, mode, insts...)
		}
	case *ir.LockBatch:
		var locks []core.BatchLock
		for i := range x.Entries {
			en := &x.Entries[i]
			var mode core.ModeID
			var rank int
			have := false
			for _, v := range en.Vars {
				inst := instOf(env[v])
				if inst == nil {
					continue
				}
				if !have {
					mode = e.modeFor(inst, en.Set, en.Generic, env)
					rank = e.Res.Rank(inst.Class)
					have = true
				}
				locks = append(locks, core.BatchLock{Sem: inst.Sem, Mode: mode, Rank: rank})
			}
		}
		tx.LockBatch(locks...)
	case *ir.UnlockAllVar:
		if inst := instOf(env[x.Var]); inst != nil {
			tx.UnlockInstance(inst.Sem)
		}
	case *ir.Observe:
		// Optimistic counterpart of LV/LV2: snapshot the version counter
		// of the mode the lock statement would have taken. A failed
		// observation (a conflicting holder present) aborts the
		// enclosing optimistic body via optAbort, which the Optimistic
		// case recovers into the pessimistic fallback.
		for _, v := range x.Vars {
			inst := instOf(env[v])
			if inst == nil {
				continue
			}
			mode := e.modeFor(inst, x.Set, x.Generic, env)
			if !tx.Observe(inst.Sem, mode, e.Res.Rank(inst.Class)) {
				panic(optAbort{})
			}
		}
	case *ir.Optimistic:
		// Hybrid envelope: run the body lock-free under TryOptimistic
		// and fall back to the unchanged pessimistic expansion when an
		// observation or the end-of-body validation fails. Hook records
		// from the optimistic run are buffered and only delivered on a
		// validated commit, so a discarded run is invisible to log-based
		// checkers; the fallback re-execution reports through the hook
		// directly, and overwrites any environment bindings the
		// discarded body left behind.
		var buf []hookRec
		bodyHook := hook
		if hook != nil {
			bodyHook = func(instID uint64, op core.Op, result core.Value) {
				buf = append(buf, hookRec{instID, op, result})
			}
		}
		committed := tx.TryOptimistic(func(tx *core.Txn) (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, is := r.(optAbort); is {
						ok = false
						return
					}
					panic(r)
				}
			}()
			e.runBlock(si, sec, x.Body, env, tx, bodyHook)
			return true
		})
		if committed {
			for _, r := range buf {
				hook(r.instID, r.op, r.result)
			}
			return
		}
		e.runBlock(si, sec, x.Fallback, env, tx, hook)
	case *ir.Call:
		inst := instOf(env[x.Recv])
		if inst == nil {
			panic(fmt.Sprintf("null receiver %s at %s.%s", x.Recv, x.Recv, x.Method))
		}
		args := make([]core.Value, len(x.Args))
		for i, a := range x.Args {
			args[i] = e.evalExpr(a, env)
		}
		if e.Checked {
			tx.Assert(inst.Sem, core.Op{Method: x.Method, Args: canonArgs(args)})
		}
		res := inst.Impl.Invoke(x.Method, args)
		if hook != nil {
			hook(inst.Sem.ID(), core.Op{Method: x.Method, Args: canonArgs(args)}, canonValue(res))
		}
		if x.Assign != "" {
			env[x.Assign] = res
		}
	case *ir.Assign:
		if x.NewType != "" {
			key := x.NewType
			if k, ok := e.Res.Classes.ClassOfVar(si, x.Lhs); ok {
				key = k
			}
			env[x.Lhs] = e.NewInstance(key, x.NewType)
			return
		}
		env[x.Lhs] = e.evalExpr(x.Rhs, env)
	case *ir.If:
		if e.evalCond(x.Cond, env) {
			e.runBlock(si, sec, x.Then, env, tx, hook)
		} else {
			e.runBlock(si, sec, x.Else, env, tx, hook)
		}
	case *ir.While:
		for e.evalCond(x.Cond, env) {
			e.runBlock(si, sec, x.Body, env, tx, hook)
		}
	default:
		panic(fmt.Sprintf("interp: unknown statement %T", s))
	}
}

// optAbort unwinds a failed observation out of an optimistic body (and
// only that far: the Optimistic case recovers it inside the TryOptimistic
// closure, so the envelope's abort never crosses a transaction boundary).
type optAbort struct{}

// hookRec is one buffered OpHook record from an optimistic body.
type hookRec struct {
	instID uint64
	op     core.Op
	result core.Value
}

func (e *Executor) modeFor(inst *Instance, set core.SymSet, generic bool, env map[string]core.Value) core.ModeID {
	tbl := inst.Sem.Table()
	if generic {
		set = tbl.Spec.AllOpsSet()
	}
	ref := tbl.Set(set)
	vars := ref.Vars()
	if len(vars) == 0 {
		return ref.Mode()
	}
	vals := make([]core.Value, len(vars))
	for i, v := range vars {
		vals[i] = canonValue(env[v])
	}
	return ref.Mode(vals...)
}

func (e *Executor) evalExpr(x ir.Expr, env map[string]core.Value) core.Value {
	switch v := x.(type) {
	case ir.Lit:
		return v.Val
	case ir.VarRef:
		return env[v.Name]
	case ir.Opaque:
		if e.EvalOpaque == nil {
			panic(fmt.Sprintf("interp: no evaluator for opaque expression %q", v.Text))
		}
		return e.EvalOpaque(v.Text, env)
	default:
		panic(fmt.Sprintf("interp: unknown expression %T", x))
	}
}

func (e *Executor) evalCond(c ir.Cond, env map[string]core.Value) bool {
	switch v := c.(type) {
	case ir.IsNull:
		return instOf(env[v.Var]) == nil && env[v.Var] == nil
	case ir.NotNull:
		return env[v.Var] != nil
	case ir.OpaqueCond:
		if e.EvalOpaque == nil {
			// Bare boolean variables evaluate without a custom hook.
			if b, ok := env[v.Text].(bool); ok {
				return b
			}
			panic(fmt.Sprintf("interp: no evaluator for opaque condition %q", v.Text))
		}
		res := e.EvalOpaque(v.Text, env)
		b, ok := res.(bool)
		if !ok {
			panic(fmt.Sprintf("interp: condition %q evaluated to non-bool %v", v.Text, res))
		}
		return b
	default:
		panic(fmt.Sprintf("interp: unknown condition %T", c))
	}
}

// canonValue maps ADT instances to their stable identity so that φ and
// the coverage check see one representation for "the same instance".
func canonValue(v core.Value) core.Value {
	if inst, ok := v.(*Instance); ok {
		return inst.Sem.ID()
	}
	return v
}

func canonArgs(args []core.Value) []core.Value {
	out := make([]core.Value, len(args))
	for i, a := range args {
		out[i] = canonValue(a)
	}
	return out
}

func instOf(v core.Value) *Instance {
	if v == nil {
		return nil
	}
	inst, ok := v.(*Instance)
	if !ok {
		return nil
	}
	return inst
}

// wrapperImpl dispatches wrapped calls: the first argument is the
// member instance, the rest are the original arguments.
type wrapperImpl struct {
	w *synth.WrapperADT
}

func (wi *wrapperImpl) Invoke(method string, args []core.Value) core.Value {
	if len(args) == 0 {
		panic("interp: wrapper call without instance argument")
	}
	inst := instOf(args[0])
	if inst == nil {
		panic("interp: wrapper call on null instance")
	}
	orig := method
	if len(wi.w.Members) > 1 {
		// Multi-member wrappers prefix methods with the class key.
		for _, m := range wi.w.Members {
			prefix := m + "_"
			if len(method) > len(prefix) && method[:len(prefix)] == prefix {
				orig = method[len(prefix):]
				break
			}
		}
	}
	return inst.Impl.Invoke(orig, args[1:])
}

// DefaultRegistry returns constructors for the standard ADT library.
func DefaultRegistry() map[string]func() Impl {
	return map[string]func() Impl{
		"Map":      func() Impl { return mapImpl{adt.NewHashMap()} },
		"Set":      func() Impl { return setImpl{adt.NewHashSet()} },
		"Queue":    func() Impl { return queueImpl{adt.NewQueue()} },
		"Multimap": func() Impl { return mmImpl{adt.NewMultimap()} },
		"Counter":  func() Impl { return counterImpl{adt.NewCounter()} },
		"Deque":    func() Impl { return dequeImpl{adt.NewDeque()} },
		"PQueue":   func() Impl { return pqImpl{adt.NewPQueue()} },
		"List":     func() Impl { return listImpl{adt.NewList()} },
	}
}

type mapImpl struct{ m *adt.HashMap }

func (x mapImpl) Invoke(method string, args []core.Value) core.Value {
	switch method {
	case "get":
		return x.m.Get(args[0])
	case "put":
		return x.m.Put(args[0], args[1])
	case "putIfAbsent":
		return x.m.PutIfAbsent(args[0], args[1])
	case "remove":
		return x.m.Remove(args[0])
	case "containsKey":
		return x.m.ContainsKey(args[0])
	case "size":
		return x.m.Size()
	case "clear":
		x.m.Clear()
		return nil
	}
	panic("interp: Map has no method " + method)
}

type setImpl struct{ s *adt.HashSet }

func (x setImpl) Invoke(method string, args []core.Value) core.Value {
	switch method {
	case "add":
		x.s.Add(args[0])
		return nil
	case "remove":
		x.s.Remove(args[0])
		return nil
	case "contains":
		return x.s.Contains(args[0])
	case "size":
		return x.s.Size()
	case "clear":
		x.s.Clear()
		return nil
	}
	panic("interp: Set has no method " + method)
}

type queueImpl struct{ q *adt.Queue }

func (x queueImpl) Invoke(method string, args []core.Value) core.Value {
	switch method {
	case "enqueue":
		x.q.Enqueue(args[0])
		return nil
	case "dequeue":
		v, _ := x.q.Dequeue()
		return v
	case "isEmpty":
		return x.q.IsEmpty()
	case "size":
		return x.q.Size()
	}
	panic("interp: Queue has no method " + method)
}

type mmImpl struct{ m *adt.Multimap }

func (x mmImpl) Invoke(method string, args []core.Value) core.Value {
	switch method {
	case "get":
		return x.m.Get(args[0])
	case "put":
		return x.m.Put(args[0], args[1])
	case "remove":
		return x.m.Remove(args[0], args[1])
	case "removeAll":
		return x.m.RemoveAll(args[0])
	case "containsEntry":
		return x.m.ContainsEntry(args[0], args[1])
	case "size":
		return x.m.Size()
	}
	panic("interp: Multimap has no method " + method)
}

type counterImpl struct{ c *adt.Counter }

func (x counterImpl) Invoke(method string, args []core.Value) core.Value {
	switch method {
	case "inc":
		x.c.Inc(toI64(args[0]))
		return nil
	case "dec":
		x.c.Dec(toI64(args[0]))
		return nil
	case "read":
		return x.c.Read()
	}
	panic("interp: Counter has no method " + method)
}

type dequeImpl struct{ d *adt.Deque }

func (x dequeImpl) Invoke(method string, args []core.Value) core.Value {
	switch method {
	case "pushFront":
		x.d.PushFront(args[0])
		return nil
	case "pushBack":
		x.d.PushBack(args[0])
		return nil
	case "popFront":
		v, _ := x.d.PopFront()
		return v
	case "popBack":
		v, _ := x.d.PopBack()
		return v
	case "size":
		return x.d.Size()
	}
	panic("interp: Deque has no method " + method)
}

type pqImpl struct{ p *adt.PQueue }

func (x pqImpl) Invoke(method string, args []core.Value) core.Value {
	switch method {
	case "insert":
		x.p.Insert(toI64(args[0]), args[1])
		return nil
	case "extractMin":
		v, _ := x.p.ExtractMin()
		return v
	case "peekMin":
		v, _ := x.p.PeekMin()
		return v
	case "size":
		return x.p.Size()
	}
	panic("interp: PQueue has no method " + method)
}

type listImpl struct{ l *adt.List }

func (x listImpl) Invoke(method string, args []core.Value) core.Value {
	switch method {
	case "append":
		return x.l.Append(args[0])
	case "get":
		return x.l.Get(args[0].(int))
	case "set":
		return x.l.Set(args[0].(int), args[1])
	case "size":
		return x.l.Size()
	}
	panic("interp: List has no method " + method)
}

func toI64(v core.Value) int64 {
	switch n := v.(type) {
	case int:
		return int64(n)
	case int64:
		return n
	default:
		panic(fmt.Sprintf("interp: not an integer: %v", v))
	}
}
