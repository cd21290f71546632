// Package intruder is a from-scratch Go port of the STAMP Intruder
// benchmark (§6.2): an emulation of signature-based network intrusion
// detection. Packets of fragmented flows are pulled from a capture
// queue; the reassembly step — the benchmark's atomic section, the code
// that inspired Fig 1 — inserts fragments into a shared flow map and,
// on completion, moves the assembled flow to a decoded queue; the
// detection step scans assembled payloads against a signature
// dictionary.
//
// The paper's configuration "-a 10 -l 256 -n 16384 -s 1" maps to
// Config{Attacks: 10, MaxLength: 256, Flows: 16384, Seed: 1}.
package intruder

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/adt"
	"repro/internal/adtspecs"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/modules/plan"
)

// Config is the workload configuration (STAMP's -a -l -n -s).
type Config struct {
	Attacks   int   // percentage of flows carrying an attack signature
	MaxLength int   // maximum flow payload length in bytes
	Flows     int   // number of flows
	Seed      int64 // PRNG seed
}

// PaperConfig is the configuration used in Fig 24.
func PaperConfig() Config {
	return Config{Attacks: 10, MaxLength: 256, Flows: 16384, Seed: 1}
}

// Packet is one fragment of a flow.
type Packet struct {
	FlowID   int
	FragID   int
	NumFrags int
	Payload  string
}

// signatures is the attack dictionary planted into ~Attacks% of flows.
var signatures = []string{
	"ATTACK-AAAA", "ATTACK-BBBB", "ATTACK-CCCC", "ATTACK-DDDD",
	"ATTACK-EEEE", "ATTACK-FFFF", "ATTACK-GGGG", "ATTACK-HHHH",
}

// Workload is the generated packet trace plus ground truth.
type Workload struct {
	Packets     []Packet
	AttackFlows int // number of flows carrying a signature
}

// Generate builds the packet trace: Flows flows with random payloads of
// length ≤ MaxLength split into random fragments, Attacks% carrying a
// planted signature, all packets shuffled (fragments of one flow stay
// in relative order only with respect to reassembly needs — reassembly
// tolerates any order).
func Generate(cfg Config) *Workload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Workload{}
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	for f := 0; f < cfg.Flows; f++ {
		n := 16 + rng.Intn(cfg.MaxLength-15)
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		payload := string(b)
		if rng.Intn(100) < cfg.Attacks {
			sig := signatures[rng.Intn(len(signatures))]
			pos := rng.Intn(len(payload) - len(sig) + 1)
			if pos < 0 {
				pos = 0
			}
			payload = payload[:pos] + sig + payload[pos+len(sig):]
			w.AttackFlows++
		}
		// Split into 1..8 fragments.
		nf := 1 + rng.Intn(8)
		if nf > len(payload) {
			nf = len(payload)
		}
		cuts := rng.Perm(len(payload) - 1)[:nf-1]
		sort.Ints(cuts)
		prev := 0
		frags := make([]string, 0, nf)
		for _, c := range cuts {
			frags = append(frags, payload[prev:c+1])
			prev = c + 1
		}
		frags = append(frags, payload[prev:])
		for i, fr := range frags {
			w.Packets = append(w.Packets, Packet{FlowID: f, FragID: i, NumFrags: len(frags), Payload: fr})
		}
	}
	rng.Shuffle(len(w.Packets), func(i, j int) {
		w.Packets[i], w.Packets[j] = w.Packets[j], w.Packets[i]
	})
	return w
}

// flowState accumulates fragments of one flow.
type flowState struct {
	frags    []string
	received int
	total    int
}

func newFlowState(total int) *flowState {
	return &flowState{frags: make([]string, total), total: total}
}

// add stores a fragment; it reports whether the flow is complete.
func (fs *flowState) add(p Packet) bool {
	if fs.frags[p.FragID] == "" {
		fs.frags[p.FragID] = p.Payload
		fs.received++
	}
	return fs.received == fs.total
}

func (fs *flowState) assemble() string { return strings.Join(fs.frags, "") }

// detect scans an assembled payload for signatures (pure computation).
func detect(payload string) bool {
	for _, sig := range signatures {
		if strings.Contains(payload, sig) {
			return true
		}
	}
	return false
}

// Processor reassembles packets under one synchronization policy. The
// decoded queue hands assembled flows to the detection phase; Pop is
// the (single-operation) atomic section that drains it.
type Processor interface {
	// Process handles one packet (the reassembly atomic section); a
	// completed flow is enqueued on the decoded queue.
	Process(p Packet)
	// Pop dequeues one assembled payload (its own atomic section).
	Pop() (payload string, ok bool)
}

// Section returns the reassembly atomic section in IR — Fig 1's shape:
// a Map of flows and a Queue of decoded payloads.
func Section() *ir.Atomic {
	return &ir.Atomic{
		Name: "reassemble",
		Vars: []ir.Param{
			{Name: "fmap", Type: "Map", IsADT: true, NonNull: true},
			{Name: "decoded", Type: "Queue", IsADT: true, NonNull: true},
			{Name: "flow", Type: "int"},
			{Name: "state", Type: "FlowState"},
			{Name: "done", Type: "boolean"},
			{Name: "payload", Type: "string"},
		},
		Body: ir.Block{
			&ir.Call{Recv: "fmap", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "flow"}}, Assign: "state"},
			&ir.If{
				Cond: ir.IsNull{Var: "state"},
				Then: ir.Block{
					&ir.Assign{Lhs: "state", Rhs: ir.Opaque{Text: "newFlowState()"}},
					&ir.Call{Recv: "fmap", Method: "put", Args: []ir.Expr{ir.VarRef{Name: "flow"}, ir.VarRef{Name: "state"}}},
				},
			},
			&ir.Assign{Lhs: "done", Rhs: ir.Opaque{Text: "state.add(pkt)", Reads: []string{"state"}}},
			&ir.If{
				Cond: ir.OpaqueCond{Text: "done", Reads: []string{"done"}},
				Then: ir.Block{
					&ir.Call{Recv: "fmap", Method: "remove", Args: []ir.Expr{ir.VarRef{Name: "flow"}}},
					&ir.Assign{Lhs: "payload", Rhs: ir.Opaque{Text: "state.assemble()", Reads: []string{"state"}}},
					&ir.Call{Recv: "decoded", Method: "enqueue", Args: []ir.Expr{ir.VarRef{Name: "payload"}}},
				},
			},
		},
	}
}

// PopSection returns the detection-feed atomic section: one dequeue.
func PopSection() *ir.Atomic {
	return &ir.Atomic{
		Name: "popDecoded",
		Vars: []ir.Param{
			{Name: "decoded", Type: "Queue", IsADT: true, NonNull: true},
			{Name: "payload", Type: "string"},
		},
		Body: ir.Block{
			&ir.Call{Recv: "decoded", Method: "dequeue", Assign: "payload"},
		},
	}
}

// BuildPlan synthesizes the reassembly and pop sections under opt,
// uncached; tests build their small-φ variants here.
func BuildPlan(opt plan.Options) *plan.Plan {
	return plan.MustBuild([]*ir.Atomic{Section(), PopSection()}, adtspecs.All(), nil, opt)
}

// defaultPlan is the plan every constructor runs, synthesized once.
var defaultPlan = sync.OnceValue(func() *plan.Plan { return BuildPlan(plan.Options{}) })

// NewProcessor creates the named variant: "ours", "global", "2pl" or
// "manual".
func NewProcessor(policy string) Processor {
	switch policy {
	case "ours":
		return NewOurs()
	case "global":
		return &globalProc{fmap: adt.NewHashMap(), decoded: adt.NewQueue()}
	case "2pl":
		return &twoPLProc{fmap: adt.NewHashMap(), decoded: adt.NewQueue(),
			fmapL: cc.NewInstanceLock(0), decodedL: cc.NewInstanceLock(1)}
	case "manual":
		return &manualProc{fmap: adt.NewHashMap(), decoded: adt.NewQueue(), stripes: cc.NewStriped(64)}
	default:
		panic(fmt.Sprintf("intruder: unknown policy %q", policy))
	}
}

// Policies lists the variants in the order Fig 24 plots them.
func Policies() []string { return []string{"ours", "global", "2pl", "manual"} }

// Ours executes the synthesized plan: fmap mode
// {get(flow),put(flow,*),remove(flow)} and a decoded-queue enqueue mode
// that commutes with itself (no blocking between completing flows).
// Sections run under core.Atomically on pooled transactions, so a panic
// inside reassembly — including one injected through FaultHook —
// releases every held lock before unwinding.
type Ours struct {
	fmap    *adt.HashMap
	decoded *adt.Queue

	fmapSem  *core.Semantic
	decSem   *core.Semantic
	fmapRank int
	decRank  int
	fmapRef  core.SetRef
	encRef   core.SetRef // reassembly: {enqueue(payload)}
	popMode  core.ModeID // pop: {dequeue()}, a constant set — one mode

	// FaultHook, when non-nil, is called at each section's fault point —
	// with the section's locks held — with the section name ("process",
	// "pop"). The chaos harness injects panics and delays here.
	FaultHook func(site string)
}

// NewOurs creates the semantic-locking processor with access to the
// concrete type (fault hook, lock introspection); NewProcessor("ours")
// returns the same thing as a Processor.
func NewOurs() *Ours { return newOurs(defaultPlan()) }

// newOurs wires the processor to a synthesized plan.
func newOurs(p *plan.Plan) *Ours {
	o := &Ours{fmap: adt.NewHashMap(), decoded: adt.NewQueue()}
	o.fmapSem = core.NewSemantic(p.Table("Map"))
	o.decSem = core.NewSemantic(p.Table("Queue"))
	o.fmapRank = p.Rank("Map")
	o.decRank = p.Rank("Queue")
	o.fmapRef = p.Ref(0, "fmap")
	o.encRef = p.Ref(0, "decoded")
	o.popMode = p.Ref(1, "decoded").Mode()
	return o
}

func (o *Ours) fault(site string) {
	if o.FaultHook != nil {
		o.FaultHook(site)
	}
}

// Sems returns the semantic locks of the processor's two instances for
// quiescence introspection.
func (o *Ours) Sems() []*core.Semantic {
	return []*core.Semantic{o.fmapSem, o.decSem}
}

// Process selects both modes of the per-packet prologue through the
// fixed-arity interned selector, so it never allocates a variadic
// []Value.
func (o *Ours) Process(p Packet) {
	flow := core.Value(p.FlowID)
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(o.fmapSem, o.fmapRef.Mode1(flow), o.fmapRank)
		o.fault("process")
		if payload, done := reassemble(o.fmap, flow, p); done {
			boxed := core.Value(payload)
			tx.Lock(o.decSem, o.encRef.Mode1(boxed), o.decRank)
			o.decoded.Enqueue(boxed)
		}
	})
}

func (o *Ours) Pop() (payload string, ok bool) {
	md := o.popMode
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(o.decSem, md, o.decRank)
		o.fault("pop")
		var v core.Value
		if v, ok = o.decoded.Dequeue(); ok {
			payload = v.(string)
		}
	})
	return payload, ok
}

type globalProc struct {
	mu      cc.GlobalLock
	fmap    *adt.HashMap
	decoded *adt.Queue
}

func (g *globalProc) Process(p Packet) {
	g.mu.Enter()
	defer g.mu.Exit()
	if payload, done := reassemble(g.fmap, p.FlowID, p); done {
		g.decoded.Enqueue(payload)
	}
}

func (g *globalProc) Pop() (string, bool) {
	g.mu.Enter()
	defer g.mu.Exit()
	v, ok := g.decoded.Dequeue()
	if !ok {
		return "", false
	}
	return v.(string), true
}

type twoPLProc struct {
	fmap            *adt.HashMap
	decoded         *adt.Queue
	fmapL, decodedL *cc.InstanceLock
}

func (t *twoPLProc) Process(p Packet) {
	var tx cc.TwoPL
	tx.Lock(t.fmapL)
	defer tx.UnlockAll()
	if payload, done := reassemble(t.fmap, p.FlowID, p); done {
		tx.Lock(t.decodedL)
		t.decoded.Enqueue(payload)
	}
}

func (t *twoPLProc) Pop() (string, bool) {
	var tx cc.TwoPL
	tx.Lock(t.decodedL)
	defer tx.UnlockAll()
	v, ok := t.decoded.Dequeue()
	if !ok {
		return "", false
	}
	return v.(string), true
}

// manualProc is the ad-hoc variant of §6.2: lock striping over flow ids
// combined with linearizable Map and Queue implementations (the queue's
// own synchronization suffices because a completed flow's state is
// thread-owned once removed from the map).
type manualProc struct {
	fmap    *adt.HashMap
	decoded *adt.Queue
	stripes *cc.Striped
}

func (m *manualProc) Process(p Packet) {
	flow := core.Value(p.FlowID)
	m.stripes.Lock(flow)
	payload, done := reassemble(m.fmap, flow, p)
	m.stripes.Unlock(flow)
	if done {
		m.decoded.Enqueue(payload)
	}
}

func (m *manualProc) Pop() (string, bool) {
	//semlockvet:ignore guardedby -- single linearizable op: the manual pipeline hands off through the internally synchronized queue, no compound to protect
	v, ok := m.decoded.Dequeue()
	if !ok {
		return "", false
	}
	return v.(string), true
}

// reassemble is the shared reassembly body: fragment insertion, and on
// completion removal plus assembly. flow is p.FlowID, boxed once by the
// caller for its own locking and the map operations here.
func reassemble(fmap *adt.HashMap, flow core.Value, p Packet) (string, bool) {
	var st *flowState
	if v := fmap.Get(flow); v != nil {
		st = v.(*flowState)
	} else {
		st = newFlowState(p.NumFrags)
		fmap.Put(flow, st)
	}
	if st.add(p) {
		fmap.Remove(flow)
		return st.assemble(), true
	}
	return "", false
}

// Run executes the whole benchmark with the given processor and worker
// count: capture (shared input queue) → reassembly (Process) →
// detection (signature scan). It returns the number of attacks found.
func Run(w *Workload, proc Processor, workers int) int {
	input := adt.NewQueue()
	for _, p := range w.Packets {
		input.Enqueue(p)
	}
	var attacks atomicCounter
	var wg sync.WaitGroup
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				//semlockvet:ignore guardedby -- single linearizable op: workers steal packets from the internally synchronized capture queue
				v, ok := input.Dequeue() // capture phase
				if !ok {
					break
				}
				proc.Process(v.(Packet)) // reassembly
				if payload, ok := proc.Pop(); ok && detect(payload) {
					attacks.inc() // detection
				}
			}
			// Input drained: finish the decoded backlog.
			for {
				payload, ok := proc.Pop()
				if !ok {
					break
				}
				if detect(payload) {
					attacks.inc()
				}
			}
		}()
	}
	wg.Wait()
	return attacks.get()
}

type atomicCounter struct{ c adt.Counter }

//semlockvet:ignore guardedby -- adt.Counter.Inc is a single atomic increment; the tally needs no section
func (a *atomicCounter) inc() int64 { a.c.Inc(1); return 0 }

//semlockvet:ignore guardedby -- read after wg.Wait() quiescence in Run; single atomic load
func (a *atomicCounter) get() int { return int(a.c.Read()) }
