package core

import "fmt"

// MethodSig describes one method of an ADT's standard API: its name and
// the number of (non-receiver) arguments.
type MethodSig struct {
	Name  string
	Arity int
}

// Spec is a commutativity specification for one ADT class (§5.2, Fig 3b):
// for every pair of methods it records a condition under which operations
// of those methods commute. Lookups are order-insensitive: the condition
// stored for (m1, m2) is automatically swapped when queried as (m2, m1).
//
// A Spec also lists the ADT's method signatures, which the synthesizer
// uses to build the generic "lock everything" symbolic set of §3.
type Spec struct {
	ADT       string
	methods   []MethodSig
	byName    map[string]int
	conds     map[[2]string]Cond
	observers map[string]bool
}

// NewSpec creates an empty specification for the named ADT class with the
// given method signatures. Pairs without an explicit condition default to
// Never (conservative: not provably commutative).
func NewSpec(adt string, methods ...MethodSig) *Spec {
	s := &Spec{
		ADT:       adt,
		methods:   append([]MethodSig(nil), methods...),
		byName:    make(map[string]int, len(methods)),
		conds:     make(map[[2]string]Cond),
		observers: make(map[string]bool),
	}
	for i, m := range methods {
		if _, dup := s.byName[m.Name]; dup {
			panic(fmt.Sprintf("core: duplicate method %q in spec %q", m.Name, adt))
		}
		s.byName[m.Name] = i
	}
	return s
}

// Methods returns the ADT's method signatures in declaration order.
func (s *Spec) Methods() []MethodSig { return s.methods }

// Method returns the signature of the named method.
func (s *Spec) Method(name string) (MethodSig, bool) {
	i, ok := s.byName[name]
	if !ok {
		return MethodSig{}, false
	}
	return s.methods[i], true
}

// Commute records that operations of m1 and m2 commute when cond holds.
// cond's first-operation arguments refer to m1, second to m2. Recording
// (m1, m2) also answers queries for (m2, m1) via the swapped condition.
func (s *Spec) Commute(m1, m2 string, cond Cond) *Spec {
	s.mustHave(m1)
	s.mustHave(m2)
	s.conds[[2]string{m1, m2}] = cond
	return s
}

// Observer declares methods as observers: operations that read the
// abstract state without modifying it (get, contains, size, ...). The
// declaration is trusted input to the synthesizer's optimistic
// certification — a section is eligible for lock-free optimistic
// execution (ir.Optimistic) only if every ADT call in it is a declared
// observer — so declare a method only if it has no effect on any
// subsequent operation's result. Note that observer status is about
// abstract-state purity, not commutativity: observers may still
// conflict with mutators (get vs put on one key), which is exactly what
// the version-counter validation detects at run time.
func (s *Spec) Observer(methods ...string) *Spec {
	for _, m := range methods {
		s.mustHave(m)
		s.observers[m] = true
	}
	return s
}

// IsObserver reports whether the named method is declared an observer.
func (s *Spec) IsObserver(method string) bool { return s.observers[method] }

// observerOnly reports whether every operation of mode m is a declared
// observer: holding m cannot change the abstract state.
func (s *Spec) observerOnly(m Mode) bool {
	for _, op := range m.Ops {
		if !s.observers[op.Method] {
			return false
		}
	}
	return true
}

func (s *Spec) mustHave(m string) {
	if _, ok := s.byName[m]; !ok {
		panic(fmt.Sprintf("core: spec %q has no method %q", s.ADT, m))
	}
}

// Cond returns the commutativity condition for the method pair (m1, m2).
// Missing entries default to Never.
func (s *Spec) Cond(m1, m2 string) Cond {
	if c, ok := s.conds[[2]string{m1, m2}]; ok {
		return c
	}
	if c, ok := s.conds[[2]string{m2, m1}]; ok {
		return c.Swapped()
	}
	return Never
}

// OpsCommute evaluates the specification on two concrete runtime
// operations. A condition entry is a SUFFICIENT condition for
// commutation, and commutation itself is symmetric, so the operations
// commute when the condition holds in either direction. (For the
// symmetric conditions of Fig 3(b) the two directions coincide.)
func (s *Spec) OpsCommute(o1, o2 Op) bool {
	if s.Cond(o1.Method, o2.Method).Holds(o1.Args, o2.Args) {
		return true
	}
	return s.Cond(o2.Method, o1.Method).Holds(o2.Args, o1.Args)
}

// AllOpsSet returns the generic symbolic set containing every method of
// the ADT with all arguments * — the paper's "lock(+)" of §3, e.g.
// {add(*),remove(*),contains(*),size(),clear()} for the Set ADT.
func (s *Spec) AllOpsSet() SymSet {
	ops := make([]SymOp, len(s.methods))
	for i, m := range s.methods {
		args := make([]SymArg, m.Arity)
		for j := range args {
			args[j] = Star()
		}
		ops[i] = SymOpOf(m.Name, args...)
	}
	return SymSetOf(ops...)
}

// Validate performs sanity checks useful in tests: every condition's
// argument indices must be within the arities of the methods it relates,
// and self-pairs must be present for methods expected to self-commute.
// It returns all problems found.
func (s *Spec) Validate() []error {
	var errs []error
	for key, c := range s.conds {
		m1, ok1 := s.Method(key[0])
		m2, ok2 := s.Method(key[1])
		if !ok1 || !ok2 {
			errs = append(errs, fmt.Errorf("spec %s: condition for unknown pair %v", s.ADT, key))
			continue
		}
		if err := checkCondArity(c, m1.Arity, m2.Arity); err != nil {
			errs = append(errs, fmt.Errorf("spec %s: pair (%s,%s): %w", s.ADT, key[0], key[1], err))
		}
	}
	return errs
}

func checkCondArity(c Cond, a1, a2 int) error {
	switch x := c.(type) {
	case condNE:
		if x.i >= a1 || x.j >= a2 {
			return fmt.Errorf("argsNE(%d,%d) out of range for arities (%d,%d)", x.i, x.j, a1, a2)
		}
	case condEQ:
		if x.i >= a1 || x.j >= a2 {
			return fmt.Errorf("argsEQ(%d,%d) out of range for arities (%d,%d)", x.i, x.j, a1, a2)
		}
	case condLT:
		if x.i >= a1 || x.j >= a2 {
			return fmt.Errorf("argsLT(%d,%d) out of range for arities (%d,%d)", x.i, x.j, a1, a2)
		}
	case condGTView:
		if x.i >= a1 || x.j >= a2 {
			return fmt.Errorf("argsGT(%d,%d) out of range for arities (%d,%d)", x.i, x.j, a1, a2)
		}
	case condAnd:
		for _, sub := range x.cs {
			if err := checkCondArity(sub, a1, a2); err != nil {
				return err
			}
		}
	case condOr:
		for _, sub := range x.cs {
			if err := checkCondArity(sub, a1, a2); err != nil {
				return err
			}
		}
	}
	return nil
}
