package main

//semlockvet:file-ignore txndiscipline -- the core rungs time Semantic.Acquire/Release below the Txn layer
//semlockvet:file-ignore guardedby -- the adt rung times the bare unicast body on maps only the ladder's one goroutine touches

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/adt"
	"repro/internal/adtspecs"
	"repro/internal/apps/gossip"
	"repro/internal/apps/rangestore"
	"repro/internal/core"
	"repro/internal/modules/plan"
	"repro/internal/net/client"
	"repro/internal/net/server"
	"repro/internal/net/wire"
	"repro/internal/resilience"
)

// The ladder prices each layer of a request on one goroutine with no
// load: every rung is a tight loop over one public entry point, and the
// rungs run round-robin in blocks so that frequency or thermal drift
// hits all of them alike. A rung's figure is the median over rounds of
// its block's ns per operation; a self time is a rung minus the rungs
// it encloses, taken inside each round before the median.

const (
	ladderCalls = 4096 // calls per block of a socket-free rung
	socketCalls = 512  // round trips per block of the socket rung
	ladderKeys  = nGroups * stableMembers
)

// span is one block of one rung, as written to --trace-out. Parent is
// the rung whose call path encloses this one.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Ops     int    `json:"ops"`
}

type rung struct {
	name   string // metric name, or an unreported name other rungs are subtracted from
	parent string
	calls  int
	per    int // operations per call: 8 for the batch rungs, else 1
	run    func(n int)
}

// Rungs measured only to be subtracted from or into others.
const (
	rungUnicastErr   = "resilience.unicast_err"
	rungHandleLookup = "server.handle_lookup"
	rungRTT          = "socket.rtt"
)

// ladderKey is one (group, member) pair in every form a rung needs.
type ladderKey struct {
	g, m     string
	gv, mv   core.Value
	unicast  []byte   // unicast request body
	lookup   []byte   // lookup request body
	pipeline [][]byte // pipelineDepth × unicast, as UnicastWindow sends them
}

type ladderEnv struct {
	keys [ladderKeys]ladderKey

	groups *adt.HashMap // thread-local copy of the router's two-level table

	sem   *core.Semantic
	ref   core.SetRef
	modes [ladderKeys]core.ModeID
	locks [pipelineDepth]core.BatchLock

	ours   *gossip.Ours
	router gossip.Router
	resil  *gossip.Resilient
	sinks  [nGroups][churnMembers]*gossip.Conn
	reqs   [pipelineDepth]gossip.SendReq
	sc     gossip.BatchScratch
	store  *rangestore.Store

	srv      *server.Server
	serveErr chan error
	ex       *server.Exerciser
	conn     *client.Conn
	buf      []byte
	okBody   []byte

	err error // first failure inside a rung
}

func (e *ladderEnv) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// body strips the length prefix from a one-frame buffer: Exerciser and
// ParseReq take bodies, the Append helpers write frames.
func body(frame []byte, err error) []byte {
	if err != nil {
		panic(err) // names and payload are constants that fit the wire shape
	}
	return frame[wire.HeaderLen:]
}

func newLadderEnv() (*ladderEnv, error) {
	e := &ladderEnv{buf: make([]byte, 0, 4<<10)}
	for i := range e.keys {
		k := &e.keys[i]
		k.g, k.m = groupNames[i%nGroups], memberNames[i/nGroups]
		k.gv, k.mv = k.g, k.m
		k.unicast = body(wire.AppendUnicast(nil, k.g, k.m, payload))
		k.lookup = body(wire.AppendLookup(nil, k.g, k.m))
		for j := 0; j < pipelineDepth; j++ {
			k.pipeline = append(k.pipeline, k.unicast)
		}
	}
	e.okBody = wire.AppendOK(nil)[wire.HeaderLen:]

	// The same shape as rangestore's table: a Map class with a get(k)
	// set, whose modes commute with themselves, so nothing ever waits.
	getSet := core.SymSetOf(core.SymOpOf("get", core.VarArg("k")))
	tbl := core.NewModeTable(adtspecs.Map(), []core.SymSet{getSet},
		core.TableOptions{Phi: core.NewPhi(16)})
	e.sem = core.NewSemantic(tbl)
	e.ref = tbl.Set(getSet)
	for i := range e.modes {
		e.modes[i] = e.ref.Mode1(e.keys[i].mv)
	}

	e.ours = gossip.NewOursFused(sendCost, plan.Options{})
	e.router = e.ours
	e.groups = adt.NewHashMap()
	for gi, g := range groupNames {
		members := adt.NewHashMap()
		e.groups.Put(g, members)
		for mi, m := range memberNames {
			e.sinks[gi][mi] = gossip.NewConn(m, sendCost)
			e.router.Register(g, m, e.sinks[gi][mi])
			members.Put(m, gossip.NewConn(m, sendCost))
		}
	}
	e.resil = gossip.NewResilient(e.ours, resilience.New("ladder", resilience.DefaultConfig()))

	e.store = rangestore.New(rangeShards, rangeCap)
	for k := 0; k < rangeCap/2; k++ {
		e.store.PutPair(k)
	}

	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", SendCost: sendCost, Router: e.ours})
	if err != nil {
		return nil, err
	}
	e.srv = srv
	e.serveErr = make(chan error, 1)
	go func() { e.serveErr <- srv.Serve() }()
	e.ex = srv.Exerciser()
	if e.conn, err = client.Dial(srv.Addr().String()); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

func (e *ladderEnv) close() error {
	var errs []error
	if e.conn != nil {
		e.conn.Close()
	}
	if err := e.srv.Shutdown(5 * time.Second); err != nil {
		errs = append(errs, err)
	}
	if err := <-e.serveErr; err != nil {
		errs = append(errs, err)
	}
	sems := append(e.ours.Sems(), e.sem)
	sems = append(sems, e.store.Sems()...)
	if err := quiesced(sems); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Results the compiler must not discard.
var (
	sinkMode  core.ModeID
	sinkValue core.Value
	sinkInt   int
	sinkBool  bool
)

func (e *ladderEnv) rungs() []rung {
	one := func(name, parent string, run func(i int)) rung {
		return rung{name: name, parent: parent, calls: ladderCalls, per: 1,
			run: func(n int) {
				for i := 0; i < n; i++ {
					run(i)
				}
			}}
	}
	// batch marks a rung whose every call handles pipelineDepth operations.
	batch := func(r rung) rung { r.per = pipelineDepth; return r }
	key := func(i int) *ladderKey { return &e.keys[i%ladderKeys] }
	putKey := func(i int) int { return rangeToggle + i%(rangeCap/2-rangeToggle) }
	var stored core.Value = 1

	rs := []rung{
		one("adt.unicast_body_ns", "gossip.unicast_ns", func(i int) {
			k := key(i)
			if v := e.groups.Get(k.gv); v != nil {
				if c := v.(*adt.HashMap).Get(k.mv); c != nil {
					c.(*gossip.Conn).Send(payload)
				}
			}
		}),
		{name: "core.mode_select_ns", parent: "gossip.unicast_ns", calls: ladderCalls, per: 1,
			run: func(n int) {
				// One section around the whole block: the memo lives in the
				// transaction, and sections keep theirs across reuse.
				core.Atomically(func(tx *core.Txn) {
					for i := 0; i < n; i++ {
						sinkMode = tx.CachedMode1(e.ref, key(i).mv)
					}
				})
			}},
		one("core.acquire_release_ns", "core.txn_lock_ns", func(i int) {
			m := e.modes[i%ladderKeys]
			e.sem.Acquire(m)
			e.sem.Release(m)
		}),
		one("core.txn_lock_ns", "gossip.unicast_ns", func(i int) {
			m := e.modes[i%ladderKeys]
			core.Atomically(func(tx *core.Txn) { tx.Lock(e.sem, m, 0) })
		}),
		batch(one("core.batch_lock_ns_per_lock", "gossip.unicast_batch_ns_per_frame", func(i int) {
			// One pipelined window names the same member eight times.
			for j := range e.locks {
				e.locks[j] = core.BatchLock{Sem: e.sem, Mode: e.modes[i%ladderKeys]}
			}
			core.Atomically(func(tx *core.Txn) { tx.LockBatch(e.locks[:]...) })
		})),
		one("core.observe_validate_ns", "gossip.lookup_ns", func(i int) {
			m := e.modes[i%ladderKeys]
			core.Atomically(func(tx *core.Txn) {
				sinkBool = tx.TryOptimistic(func(tx *core.Txn) bool { return tx.Observe(e.sem, m, 0) })
			})
		}),
		one("gossip.unicast_ns", "server.handle_ns", func(i int) {
			k := key(i)
			e.ours.UnicastV(k.gv, k.mv, payload)
		}),
		batch(one("gossip.unicast_batch_ns_per_frame", "server.handle_batch_ns_per_frame", func(i int) {
			k := key(i)
			for j := range e.reqs {
				e.reqs[j] = gossip.SendReq{Group: k.gv, Dst: k.mv, Payload: payload}
			}
			e.ours.UnicastBatchV(e.reqs[:], &e.sc)
		})),
		one("gossip.lookup_ns", rungHandleLookup, func(i int) {
			k := key(i)
			sinkBool = e.ours.Lookup(k.g, k.m)
		}),
		one("gossip.multicast_ns", "", func(i int) {
			e.router.Multicast(groupNames[i%nGroups], payload)
		}),
		one("gossip.register_unregister_ns", "", func(i int) {
			gi, mi := i%nGroups, stableMembers+i/nGroups%(churnMembers-stableMembers)
			e.router.Register(groupNames[gi], memberNames[mi], e.sinks[gi][mi])
			e.router.Unregister(groupNames[gi], memberNames[mi])
		}),
		one("rangestore.get_ns", "", func(i int) { sinkValue = e.store.Get(i * 1237 % rangeCap) }),
		one("rangestore.get_pessimistic_ns", "", func(i int) { sinkValue = e.store.GetPessimistic(i * 1237 % rangeCap) }),
		one("rangestore.put_ns", "", func(i int) { e.store.Put(putKey(i), stored) }),
		one("rangestore.putpair_ns", "", func(i int) { e.store.PutPair(i % rangeToggle) }),
		one("rangestore.scan_ns", "", func(i int) { sinkInt = e.store.Scan() }),
		one("rangestore.scan_pessimistic_ns", "", func(i int) { sinkInt = e.store.ScanPessimistic() }),
		one(rungUnicastErr, "", func(i int) {
			k := key(i)
			if err := e.resil.UnicastErrV(k.gv, k.mv, payload); err != nil {
				e.fail(err)
			}
		}),
		one("wire.parse_req_ns", "server.handle_ns", func(i int) {
			req, err := wire.ParseReq(key(i).unicast)
			if err != nil {
				e.fail(err)
			}
			sinkInt = len(req.Payload)
		}),
		one("wire.append_req_ns", rungRTT, func(i int) {
			k := key(i)
			out, err := wire.AppendUnicast(e.buf[:0], k.g, k.m, payload)
			if err != nil {
				e.fail(err)
			}
			e.buf = out
		}),
		one("wire.parse_resp_ns", rungRTT, func(i int) {
			resp, err := wire.ParseResp(e.okBody)
			if err != nil {
				e.fail(err)
			}
			sinkBool = resp.Bool
		}),
		one("wire.append_resp_ns", "server.handle_ns", func(i int) { e.buf = wire.AppendOK(e.buf[:0]) }),
		one("server.handle_ns", "", func(i int) {
			out, err := e.ex.Handle(key(i).unicast, e.buf[:0])
			if err != nil {
				e.fail(err)
			}
			e.buf = out
		}),
		batch(one("server.handle_batch_ns_per_frame", "", func(i int) {
			out, err := e.ex.HandleBatch(key(i).pipeline, e.buf[:0])
			if err != nil {
				e.fail(err)
			}
			e.buf = out
		})),
		one(rungHandleLookup, rungRTT, func(i int) {
			out, err := e.ex.Handle(key(i).lookup, e.buf[:0])
			if err != nil {
				e.fail(err)
			}
			e.buf = out
		}),
		one(rungRTT, "", func(i int) {
			k := key(i)
			found, err := e.conn.Lookup(k.g, k.m)
			if err != nil {
				e.fail(err)
			} else if !found {
				e.fail(fmt.Errorf("ladder: lookup of seeded member %s/%s answered false", k.g, k.m))
			}
		}),
	}
	rs[len(rs)-1].calls = socketCalls // the round-trip rung is last
	return rs
}

// ladderMetrics lists what runLadder reports, in print order.
var ladderMetrics = []string{
	"adt.unicast_body_ns",
	"core.mode_select_ns", "core.acquire_release_ns", "core.txn_lock_ns",
	"core.batch_lock_ns_per_lock", "core.observe_validate_ns",
	"gossip.unicast_ns", "gossip.unicast_batch_ns_per_frame", "gossip.lookup_ns",
	"gossip.multicast_ns", "gossip.register_unregister_ns",
	"rangestore.get_ns", "rangestore.get_pessimistic_ns", "rangestore.put_ns",
	"rangestore.putpair_ns", "rangestore.scan_ns", "rangestore.scan_pessimistic_ns",
	"resilience.admit_ns",
	"wire.parse_req_ns", "wire.append_req_ns", "wire.parse_resp_ns", "wire.append_resp_ns",
	"server.handle_ns", "server.handle_batch_ns_per_frame", "server.handle_self_ns",
	"socket.rtt_self_us",
}

// runLadder runs rounds until budget is spent (and at least minRounds)
// and returns each ladder metric's median plus one span per block.
func runLadder(budget time.Duration, minRounds int) (map[string]float64, []span, error) {
	e, err := newLadderEnv()
	if err != nil {
		return nil, nil, fmt.Errorf("ladder: %w", err)
	}
	rs := e.rungs()
	for _, r := range rs { // untimed round: grow buffers, fill memos and intern tables
		r.run(r.calls)
	}
	perRound := map[string][]float64{}
	var spans []span
	t0 := time.Now()
	for round := 0; round < minRounds || time.Since(t0) < budget; round++ {
		ns := make(map[string]float64, len(rs))
		for _, r := range rs {
			start := time.Now()
			r.run(r.calls)
			end := time.Now()
			ops := r.calls * r.per
			ns[r.name] = float64(end.Sub(start)) / float64(ops)
			spans = append(spans, span{Name: r.name, Parent: r.parent,
				StartNs: int64(start.Sub(t0)), EndNs: int64(end.Sub(t0)), Ops: ops})
		}
		ns["resilience.admit_ns"] = ns[rungUnicastErr] - ns["gossip.unicast_ns"]
		ns["server.handle_self_ns"] = ns["server.handle_ns"] - ns["wire.parse_req_ns"] -
			ns["gossip.unicast_ns"] - ns["wire.append_resp_ns"]
		ns["socket.rtt_self_us"] = (ns[rungRTT] - ns[rungHandleLookup]) / 1e3
		for k, v := range ns {
			perRound[k] = append(perRound[k], v)
		}
	}
	if err := errors.Join(e.err, e.close()); err != nil {
		return nil, nil, fmt.Errorf("ladder: %w", err)
	}
	out := make(map[string]float64, len(ladderMetrics))
	for _, name := range ladderMetrics {
		out[name] = median(perRound[name])
	}
	return out, spans, nil
}
