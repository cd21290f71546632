// Package ir defines the intermediate representation of client atomic
// sections (§2.1 of the paper): a small structured language of ADT
// method calls, assignments, conditionals and loops, plus the synthetic
// locking statements the synthesizer inserts (prologue/epilogue, LV, LV2,
// lock, unlockAll). It also provides a control-flow graph with the
// reachability and dataflow queries the synthesis algorithm needs.
//
// The paper's client language is Java with atomic blocks; the IR is the
// language-independent core of that. The go/ast frontend (internal/gosrc)
// translates annotated Go functions into this IR, and the pretty-printer
// renders synthesized sections in the paper's notation for the golden
// tests of Figs 2, 13–15, 17, 18 and 26–28.
package ir

import "repro/internal/core"

// Expr is an expression. The synthesis algorithm only needs to know
// which variables an expression reads and whether it is a literal, so
// the expression language is deliberately shallow.
type Expr interface{ exprNode() }

// VarRef reads a (thread-local) program variable.
type VarRef struct{ Name string }

// Lit is a literal value.
type Lit struct{ Val core.Value }

// Opaque is an arbitrary pure computation over thread-local state; Reads
// lists the variables it mentions. Text is used for printing only.
type Opaque struct {
	Text  string
	Reads []string
}

func (VarRef) exprNode() {}
func (Lit) exprNode()    {}
func (Opaque) exprNode() {}

// Cond is a branch condition. IsNull/NotNull conditions are recognized
// by the null-check-removal optimization (Appendix A); everything else
// is opaque.
type Cond interface{ condNode() }

// IsNull tests x == null.
type IsNull struct{ Var string }

// NotNull tests x != null.
type NotNull struct{ Var string }

// OpaqueCond is any other boolean expression; Reads lists mentioned
// variables and Text is used for printing.
type OpaqueCond struct {
	Text  string
	Reads []string
}

func (IsNull) condNode()     {}
func (NotNull) condNode()    {}
func (OpaqueCond) condNode() {}

// Stmt is a statement of an atomic section.
type Stmt interface{ stmtNode() }

// Call invokes an ADT method: [Assign =] Recv.Method(Args...). Recv is a
// pointer variable naming the ADT instance. If Assign names an ADT
// pointer variable the call is also a pointer update (e.g.
// "set = map.get(id)"), which the restrictions-graph construction and
// the backward refinement treat as a kill of Assign.
type Call struct {
	Recv   string
	Method string
	Args   []Expr
	Assign string // "" when the result is unused or not bound
}

// Assign binds a variable: Lhs = Rhs. When Rhs is nil and NewType is
// non-empty the statement is an allocation "Lhs = new NewType()" (ADT
// constructors are pure, §2.1, so allocation is not a shared-state
// operation but it is a pointer kill and yields a non-null value).
type Assign struct {
	Lhs     string
	Rhs     Expr
	NewType string
}

// If is a two-armed conditional; Else may be nil.
type If struct {
	Cond Cond
	Then Block
	Else Block
}

// While is a pre-test loop.
type While struct {
	Cond Cond
	Body Block
}

// Block is a statement sequence.
type Block []Stmt

func (*Call) stmtNode()   {}
func (*Assign) stmtNode() {}
func (*If) stmtNode()     {}
func (*While) stmtNode()  {}

// ---- Synthetic statements inserted by the synthesizer ----

// Prologue initializes LOCAL_SET (§3.1). The emitted section releases
// LOCAL_SET on every exit path — normal return, early unlock, abort, or
// panic — because gosrc wraps every section body in core.Atomically.
// Guard, the synthesizer's record of that demand, is always true and
// nothing reads it.
type Prologue struct {
	Guard bool
}

// Epilogue unlocks every ADT in LOCAL_SET (§3.1).
type Epilogue struct{}

// LV is the locking macro of Fig 5 applied to Var: lock the ADT pointed
// to by Var (with symbolic set Set, or the generic lock(+) when Generic)
// unless it is null or already in LOCAL_SET. Guarded indicates the
// "if(x!=null)" form used after LOCAL_SET elision (Fig 27); when the
// null check is proven redundant, Guarded is false and NoLocalSet true
// (Fig 17 / Fig 2).
type LV struct {
	Var        string
	Set        core.SymSet
	Generic    bool
	NoLocalSet bool // LOCAL_SET elided (Appendix A)
	Guarded    bool // retains the explicit null check
}

// LV2 locks several same-class variables in dynamic unique-id order
// (Fig 12).
type LV2 struct {
	Vars       []string
	Set        core.SymSet
	Generic    bool
	NoLocalSet bool
}

// UnlockAllVar is "if(x!=null) x.unlockAll()" (or unguarded when
// Guarded is false), produced by LOCAL_SET elision and possibly moved
// earlier by the early-lock-release optimization (Appendix A).
type UnlockAllVar struct {
	Var     string
	Guarded bool
}

// BatchEntry is one constituent of a fused prologue acquisition: the
// variables to lock (one for a fused LV, several for a fused LV2 —
// same-class variables locked in dynamic unique-id order at run time),
// their symbolic set, and the flags of the statement it was fused from.
type BatchEntry struct {
	Vars       []string
	Set        core.SymSet
	Generic    bool
	NoLocalSet bool
	Guarded    bool
}

// LockBatch is a fused prologue: consecutive LV/LV2 insertions merged
// into one batched runtime acquisition (core.Txn.LockBatch). Entries
// are ordered by ascending equivalence-class rank; fusion never merges
// or reorders across a rank boundary, so the entry sequence realizes
// the same topological order of §3.3 the unfused statements did.
// Within one entry, same-rank variables order dynamically by unique id
// exactly as LV2 does.
type LockBatch struct {
	Entries []BatchEntry
}

// Observe is the optimistic counterpart of LV/LV2 inside an Optimistic
// body: instead of locking the ADT pointed to by Vars it snapshots the
// version counter of the mode the pessimistic section would take
// (core.Txn.Observe), for end-of-body validation. Several same-class
// variables share one Observe exactly as they share an LV2 — observation
// acquires nothing, so no dynamic ordering is needed, only one snapshot
// per instance. Guarded retains the explicit null check of the LV it
// replaced.
type Observe struct {
	Vars    []string
	Set     core.SymSet
	Generic bool
	Guarded bool
}

// Optimistic is the hybrid execution envelope (core.Snapshot's
// observe/validate protocol; internal/interp runs it through
// core.Txn.TryOptimistic on the transaction it already has,
// internal/gosrc emits it over a bare Snapshot):
// Body is the certified read-only variant of the section, with every
// lock statement replaced by an Observe; Fallback is the unchanged
// pessimistic expansion (prologue, LV/LV2/LockBatch, epilogue). The
// runtime runs Body lock-free, validates the observations, and on
// mismatch discards Body's results and re-runs Fallback. The synthesizer
// emits this node only for sections it proved read-only, and
// internal/verify independently certifies both halves.
type Optimistic struct {
	Body     Block
	Fallback Block
}

func (*Prologue) stmtNode()     {}
func (*Epilogue) stmtNode()     {}
func (*LV) stmtNode()           {}
func (*LV2) stmtNode()          {}
func (*UnlockAllVar) stmtNode() {}
func (*LockBatch) stmtNode()    {}
func (*Observe) stmtNode()      {}
func (*Optimistic) stmtNode()   {}

// Param declares a variable visible in an atomic section: a pointer to
// an ADT instance (IsADT) or a plain thread-local value. Type names the
// ADT class for pointer variables (the default equivalence-class
// abstraction groups pointers by this type, §3.2). NonNull records that
// the variable is known non-null on entry (globals initialized at
// startup, receiver-style parameters).
type Param struct {
	Name    string
	Type    string
	IsADT   bool
	NonNull bool
}

// Atomic is one atomic section: a named block with its variable
// declarations. Vars must declare every variable used in the body
// (pointer variables and thread-local values alike); variables assigned
// in the body need not be pre-declared but may be.
type Atomic struct {
	Name string
	Vars []Param
	Body Block
}

// Var returns the declaration of a variable, if present.
func (a *Atomic) Var(name string) (Param, bool) {
	for _, p := range a.Vars {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// ADTType returns the declared ADT class of a pointer variable.
func (a *Atomic) ADTType(name string) string {
	p, _ := a.Var(name)
	return p.Type
}

// Clone returns a deep copy of the atomic section (the synthesizer
// transforms copies, leaving the input intact).
func (a *Atomic) Clone() *Atomic {
	out := &Atomic{Name: a.Name, Vars: append([]Param(nil), a.Vars...)}
	out.Body = cloneBlock(a.Body)
	return out
}

func cloneBlock(b Block) Block {
	out := make(Block, len(b))
	for i, s := range b {
		out[i] = cloneStmt(s)
	}
	return out
}

func cloneStmt(s Stmt) Stmt {
	switch x := s.(type) {
	case *Call:
		c := *x
		c.Args = append([]Expr(nil), x.Args...)
		return &c
	case *Assign:
		c := *x
		return &c
	case *If:
		return &If{Cond: x.Cond, Then: cloneBlock(x.Then), Else: cloneBlock(x.Else)}
	case *While:
		return &While{Cond: x.Cond, Body: cloneBlock(x.Body)}
	case *Prologue:
		cp := *x
		return &cp
	case *Epilogue:
		return &Epilogue{}
	case *LV:
		c := *x
		return &c
	case *LV2:
		c := *x
		c.Vars = append([]string(nil), x.Vars...)
		return &c
	case *UnlockAllVar:
		c := *x
		return &c
	case *LockBatch:
		c := &LockBatch{Entries: make([]BatchEntry, len(x.Entries))}
		for i, e := range x.Entries {
			e.Vars = append([]string(nil), e.Vars...)
			c.Entries[i] = e
		}
		return c
	case *Observe:
		c := *x
		c.Vars = append([]string(nil), x.Vars...)
		return &c
	case *Optimistic:
		return &Optimistic{Body: cloneBlock(x.Body), Fallback: cloneBlock(x.Fallback)}
	default:
		panic("ir: unknown statement type in clone")
	}
}

// exprReads appends the variables read by e to dst.
func exprReads(e Expr, dst []string) []string {
	switch x := e.(type) {
	case VarRef:
		return append(dst, x.Name)
	case Opaque:
		return append(dst, x.Reads...)
	default:
		return dst
	}
}

// condReads appends the variables read by c to dst.
func condReads(c Cond, dst []string) []string {
	switch x := c.(type) {
	case IsNull:
		return append(dst, x.Var)
	case NotNull:
		return append(dst, x.Var)
	case OpaqueCond:
		return append(dst, x.Reads...)
	default:
		return dst
	}
}
