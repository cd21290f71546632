// Package gossip is a from-scratch reproduction of the JGroups
// GossipRouter benchmark (§6.2): a routing server whose main state is a
// routing table consisting of an unbounded number of Map ADTs — an
// outer Map from group name to a per-group member Map, created
// dynamically on registration.
//
// The atomic sections contain I/O: routing a message writes to member
// connections inside the section. The paper treats these I/O operations
// as thread-local, which is only possible because semantic locking
// never rolls back (irrevocable operations, §6.2). The network is
// replaced by an in-process transport (DESIGN.md substitution 5): a
// Conn counts delivered frames and burns a small calibrated cost per
// send, standing in for the socket write.
package gossip

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/adt"
	"repro/internal/adtspecs"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/modules/plan"
)

// Conn is an in-process client connection: the I/O sink of the router.
type Conn struct {
	Member   string
	Frames   atomic.Int64
	sendCost int
}

// NewConn creates a connection whose Send burns sendCost units of
// synthetic work per frame (the stand-in for a socket write).
func NewConn(member string, sendCost int) *Conn {
	return &Conn{Member: member, sendCost: sendCost}
}

// Send delivers one frame.
func (c *Conn) Send(payload []byte) {
	if burn(c.sendCost) == -1 {
		panic("unreachable")
	}
	c.Frames.Add(1)
}

// burn is the synthetic serialization cost: n dependent additions. It
// is a leaf of its own, never inlined, so that the loop sits at the head
// of a 32-byte-aligned function, inside one fetch window wherever the
// linker puts it. Written inside Send, the 16-byte loop straddled
// Send's +0x20 boundary — a cache-line boundary whenever Send landed on
// an odd multiple of 32 bytes, and every send then cost ≈ 28 ns more: a
// calibrated cost that moved by a third with the amount of code linked
// in front of it (EXPERIMENTS.md, "Multicast walk under a held mode").
//
//go:noinline
func burn(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}

// Router handles the four message kinds under one synchronization
// policy.
type Router interface {
	Register(group, member string, conn *Conn)
	Unregister(group, member string)
	Unicast(group, dst string, payload []byte)
	Multicast(group string, payload []byte)
}

// Sections returns the router's atomic sections in IR.
func Sections() []*ir.Atomic {
	vars := func() []ir.Param {
		return []ir.Param{
			{Name: "groups", Type: "Map", IsADT: true, NonNull: true},
			{Name: "members", Type: "Map", IsADT: true},
			{Name: "g", Type: "string"},
			{Name: "m", Type: "string"},
			{Name: "dst", Type: "string"},
			{Name: "conn", Type: "Conn"},
			{Name: "c", Type: "Conn"},
			{Name: "cs", Type: "list"},
		}
	}
	return []*ir.Atomic{
		{
			Name: "register",
			Vars: vars(),
			Body: ir.Block{
				&ir.Call{Recv: "groups", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "g"}}, Assign: "members"},
				&ir.If{
					Cond: ir.IsNull{Var: "members"},
					Then: ir.Block{
						&ir.Assign{Lhs: "members", NewType: "Map"},
						&ir.Call{Recv: "groups", Method: "put", Args: []ir.Expr{ir.VarRef{Name: "g"}, ir.VarRef{Name: "members"}}},
					},
				},
				&ir.Call{Recv: "members", Method: "put", Args: []ir.Expr{ir.VarRef{Name: "m"}, ir.VarRef{Name: "conn"}}},
			},
		},
		{
			Name: "unregister",
			Vars: vars(),
			Body: ir.Block{
				&ir.Call{Recv: "groups", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "g"}}, Assign: "members"},
				&ir.If{
					Cond: ir.NotNull{Var: "members"},
					Then: ir.Block{
						&ir.Call{Recv: "members", Method: "remove", Args: []ir.Expr{ir.VarRef{Name: "m"}}},
					},
				},
			},
		},
		{
			Name: "unicast",
			Vars: vars(),
			Body: ir.Block{
				&ir.Call{Recv: "groups", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "g"}}, Assign: "members"},
				&ir.If{
					Cond: ir.NotNull{Var: "members"},
					Then: ir.Block{
						&ir.Call{Recv: "members", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "dst"}}, Assign: "c"},
						&ir.If{
							Cond: ir.NotNull{Var: "c"},
							Then: ir.Block{
								// I/O: thread-local, not an ADT op.
								&ir.Assign{Lhs: "c", Rhs: ir.Opaque{Text: "send(c, payload)", Reads: []string{"c"}}},
							},
						},
					},
				},
			},
		},
		{
			Name: "multicast",
			Vars: vars(),
			Body: ir.Block{
				&ir.Call{Recv: "groups", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "g"}}, Assign: "members"},
				&ir.If{
					Cond: ir.NotNull{Var: "members"},
					Then: ir.Block{
						&ir.Call{Recv: "members", Method: "values", Assign: "cs"},
						// I/O loop over cs: thread-local.
						&ir.Assign{Lhs: "cs", Rhs: ir.Opaque{Text: "sendAll(cs, payload)", Reads: []string{"cs"}}},
					},
				},
			},
		},
	}
}

// ClassOf splits the outer group map and the (unboundedly many) inner
// member maps into two classes — the member maps are one class, as the
// points-to abstraction allocates them at a single site.
func ClassOf(sec *ir.Atomic, v string) string {
	switch v {
	case "groups":
		return "Map$groups"
	case "members":
		return "Map$members"
	}
	return sec.ADTType(v)
}

var planCache = plan.NewCache(func(opt plan.Options) *plan.Plan {
	return plan.MustBuild(Sections(), adtspecs.All(), ClassOf, opt)
})

// BuildPlan synthesizes the router; plans are memoized per Options.
// register's {put(m,conn)} instantiates n² modes, so the default
// MaxModes cap coarsens φ — members are still spread over 32 buckets.
func BuildPlan(opt plan.Options) *plan.Plan { return planCache.Get(opt) }

// New creates the named variant: "ours", "global", "2pl" or "manual".
// The router ignores sendCost: the per-frame synthetic I/O cost belongs
// to the Conn a member registers (NewConn), not to the routing table.
func New(policy string, sendCost int, opt plan.Options) Router {
	switch policy {
	case "ours":
		return NewOurs(sendCost, opt)
	case "global":
		return &global{groups: adt.NewHashMap()}
	case "2pl":
		return &twoPL{groups: adt.NewHashMap(), groupsL: cc.NewInstanceLock(0)}
	case "manual":
		return &manual{groups: adt.NewHashMap()}
	default:
		panic(fmt.Sprintf("gossip: unknown policy %q", policy))
	}
}

// Policies lists the variants in the order Fig 25 plots them.
func Policies() []string { return []string{"ours", "global", "2pl", "manual"} }

// Ours executes the synthesized plan. Each inner member map carries its
// own Semantic instance (the class has unboundedly many instances).
// Sections run under core.Atomically on pooled transactions, so a panic
// anywhere inside a section — including one injected through FaultHook —
// releases every held lock before unwinding.
type Ours struct {
	groups     *adt.HashMap
	groupsSem  *core.Semantic
	memTable   *core.ModeTable
	groupsRank int
	memRank    int

	// FaultHook, when non-nil, is called once per section at its fault
	// point — after every lock of the section is held, before the last
	// ADT mutation — with the section name ("register", "unregister",
	// "unicast", "multicast"). The chaos harness injects panics and
	// delays here. A panic thrown by the hook escapes the section as a
	// *core.SectionPanic with all locks released.
	FaultHook func(site string)

	// Every section selects its modes through the fixed-arity interned
	// selectors (SetRef.Mode1, Binder2): no argument slice, no indirect
	// call, and the key stays on the caller's stack.
	regGroupsRef core.SetRef                              // register: groups {get(g),put(g,*)}
	regMem2      func(core.Value, core.Value) core.ModeID // register: members {put(m,conn)}
	unregGRef    core.SetRef                              // unregister: groups {get(g)}
	unregMemRef  core.SetRef                              // unregister: members {remove(m)}
	uniGRef      core.SetRef                              // unicast: groups {get(g)}
	uniMemRef    core.SetRef                              // unicast: members {get(dst)}
	mcGRef       core.SetRef                              // multicast: groups {get(g)}
	mcMemMode    core.ModeID                              // multicast: members {values()}
}

// memberMap is one inner ADT instance: a map plus its semantic lock.
type memberMap struct {
	m   *adt.HashMap
	sem *core.Semantic
}

// NewOurs creates the semantic-locking router with access to the
// concrete type (fault hook, lock introspection); New("ours", ...)
// returns the same thing as a Router. sendCost is ignored, as in New.
func NewOurs(sendCost int, opt plan.Options) *Ours {
	_ = sendCost
	return newOurs(BuildPlan(opt))
}

// newOurs wires the router to a synthesized plan. It panics unless the
// plan's member table derives that multicast's {values()} mode excludes
// every mutator of a member map: the multicast bodies walk the map with
// RangeHeld on the strength of that mode alone.
func newOurs(p *plan.Plan) *Ours {
	o := &Ours{groups: adt.NewHashMap()}
	o.groupsSem = core.NewSemantic(p.Table("Map$groups"))
	o.memTable = p.Table("Map$members")
	o.groupsRank = p.Rank("Map$groups")
	o.memRank = p.Rank("Map$members")
	o.regGroupsRef = p.Ref(0, "groups")
	o.regMem2 = p.Ref(0, "members").Binder2("m", "conn")
	o.unregGRef = p.Ref(1, "groups")
	o.unregMemRef = p.Ref(1, "members")
	o.uniGRef = p.Ref(2, "groups")
	o.uniMemRef = p.Ref(2, "members")
	o.mcGRef = p.Ref(3, "groups")
	o.mcMemMode = p.Ref(3, "members").Mode()
	if !o.memTable.ExcludesMutators(o.mcMemMode) {
		panic(fmt.Sprintf("gossip: multicast's member mode %s does not exclude every mutator; its RangeHeld walk would race",
			o.memTable.Mode(o.mcMemMode)))
	}
	return o
}

// NewOursFused is NewOurs: there is one router. The name survives only
// because benchmark/README.md "The API this benchmark pins" lists it; the
// owed benchmark-only PR drops it together with Txn.CachedMode1.
func NewOursFused(sendCost int, opt plan.Options) *Ours { return NewOurs(sendCost, opt) }

func (o *Ours) fault(site string) {
	if o.FaultHook != nil {
		o.FaultHook(site)
	}
}

// Sems returns the semantic locks of every live instance: the outer
// groups lock first, then one per member map. Quiescence introspection
// only — the walk over the group table is unsynchronized, so call it
// when no sections are in flight.
func (o *Ours) Sems() []*core.Semantic {
	out := []*core.Semantic{o.groupsSem}
	//semlockvet:ignore guardedby -- quiescence introspection: documented to run only when no sections are in flight
	for _, v := range o.groups.Values() {
		out = append(out, v.(*memberMap).sem)
	}
	return out
}

// The string-keyed methods box each key into a core.Value once, at the
// call into the pre-boxed V form (boxed.go), so the in-process path and
// the served path are one body per section; nothing in those bodies
// keeps a key it only reads, so the box stays on this frame.

func (o *Ours) Register(group, member string, conn *Conn) { o.RegisterV(group, member, conn) }

func (o *Ours) Unregister(group, member string) { o.UnregisterV(group, member) }

func (o *Ours) Unicast(group, dst string, payload []byte) { o.UnicastV(group, dst, payload) }

func (o *Ours) Multicast(group string, payload []byte) { o.MulticastV(group, payload) }

// Lookup reports whether member is currently registered in group — the
// router's read-only membership probe; LookupV (boxed.go) is the body.
func (o *Ours) Lookup(group, member string) bool {
	return o.LookupV(group, member)
}

// LookupPessimistic is the same query under the ordinary pessimistic
// prologue — the baseline the optimistic experiment compares against,
// and the body Lookup falls back to.
func (o *Ours) LookupPessimistic(group, member string) bool {
	g, m := core.Value(group), core.Value(member)
	var found bool
	core.Atomically(func(tx *core.Txn) {
		found, _ = o.lookup(tx, g, m, core.Forever)
	})
	return found
}

// global serializes every section.
type global struct {
	mu     cc.GlobalLock
	groups *adt.HashMap
}

func (g *global) inner(group string, create bool) *adt.HashMap {
	if v := g.groups.Get(group); v != nil {
		return v.(*adt.HashMap)
	}
	if !create {
		return nil
	}
	m := adt.NewHashMap()
	g.groups.Put(group, m)
	return m
}

func (g *global) Register(group, member string, conn *Conn) {
	g.mu.Enter()
	defer g.mu.Exit()
	g.inner(group, true).Put(member, conn)
}

func (g *global) Unregister(group, member string) {
	g.mu.Enter()
	defer g.mu.Exit()
	if m := g.inner(group, false); m != nil {
		m.Remove(member)
	}
}

func (g *global) Unicast(group, dst string, payload []byte) {
	g.mu.Enter()
	defer g.mu.Exit()
	if m := g.inner(group, false); m != nil {
		if c := m.Get(dst); c != nil {
			c.(*Conn).Send(payload)
		}
	}
}

func (g *global) Multicast(group string, payload []byte) {
	g.mu.Enter()
	defer g.mu.Exit()
	if m := g.inner(group, false); m != nil {
		m.RangeHeld(func(_, c core.Value) bool {
			c.(*Conn).Send(payload)
			return true
		})
	}
}

// twoPL locks the outer instance, then the touched inner instance.
type twoPL struct {
	groups  *adt.HashMap
	groupsL *cc.InstanceLock
}

type lockedInner struct {
	m *adt.HashMap
	l *cc.InstanceLock
}

func (t *twoPL) inner(group string, create bool) *lockedInner {
	if v := t.groups.Get(group); v != nil {
		return v.(*lockedInner)
	}
	if !create {
		return nil
	}
	li := &lockedInner{m: adt.NewHashMap(), l: cc.NewInstanceLock(1)}
	t.groups.Put(group, li)
	return li
}

func (t *twoPL) Register(group, member string, conn *Conn) {
	var tx cc.TwoPL
	tx.Lock(t.groupsL)
	defer tx.UnlockAll()
	li := t.inner(group, true)
	tx.Lock(li.l)
	li.m.Put(member, conn)
}

func (t *twoPL) Unregister(group, member string) {
	var tx cc.TwoPL
	tx.Lock(t.groupsL)
	defer tx.UnlockAll()
	if li := t.inner(group, false); li != nil {
		tx.Lock(li.l)
		li.m.Remove(member)
	}
}

func (t *twoPL) Unicast(group, dst string, payload []byte) {
	var tx cc.TwoPL
	tx.Lock(t.groupsL)
	defer tx.UnlockAll()
	if li := t.inner(group, false); li != nil {
		tx.Lock(li.l)
		if c := li.m.Get(dst); c != nil {
			c.(*Conn).Send(payload)
		}
	}
}

func (t *twoPL) Multicast(group string, payload []byte) {
	var tx cc.TwoPL
	tx.Lock(t.groupsL)
	defer tx.UnlockAll()
	if li := t.inner(group, false); li != nil {
		tx.Lock(li.l)
		li.m.RangeHeld(func(_, c core.Value) bool {
			c.(*Conn).Send(payload)
			return true
		})
	}
}

// manual is the hand-optimized variant (in the spirit of optimizing the
// output of [9]): an RWMutex on the outer table and one RWMutex per
// group; routes take read locks (sends to different members proceed in
// parallel), membership changes take the group's write lock.
type manual struct {
	outer  sync.RWMutex
	groups *adt.HashMap
}

type rwInner struct {
	mu sync.RWMutex
	m  *adt.HashMap
}

func (m *manual) inner(group string, create bool) *rwInner {
	m.outer.RLock()
	v := m.groups.Get(group)
	m.outer.RUnlock()
	if v != nil {
		return v.(*rwInner)
	}
	if !create {
		return nil
	}
	m.outer.Lock()
	defer m.outer.Unlock()
	if v := m.groups.Get(group); v != nil {
		return v.(*rwInner)
	}
	ri := &rwInner{m: adt.NewHashMap()}
	m.groups.Put(group, ri)
	return ri
}

func (m *manual) Register(group, member string, conn *Conn) {
	ri := m.inner(group, true)
	ri.mu.Lock()
	ri.m.Put(member, conn)
	ri.mu.Unlock()
}

func (m *manual) Unregister(group, member string) {
	if ri := m.inner(group, false); ri != nil {
		ri.mu.Lock()
		ri.m.Remove(member)
		ri.mu.Unlock()
	}
}

func (m *manual) Unicast(group, dst string, payload []byte) {
	if ri := m.inner(group, false); ri != nil {
		ri.mu.RLock()
		if c := ri.m.Get(dst); c != nil {
			c.(*Conn).Send(payload)
		}
		ri.mu.RUnlock()
	}
}

func (m *manual) Multicast(group string, payload []byte) {
	if ri := m.inner(group, false); ri != nil {
		ri.mu.RLock()
		ri.m.RangeHeld(func(_, c core.Value) bool {
			c.(*Conn).Send(payload)
			return true
		})
		ri.mu.RUnlock()
	}
}
