package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/apps/gossip"
	"repro/internal/apps/rangestore"
	"repro/internal/core"
	"repro/internal/modules/plan"
	"repro/internal/net/client"
	"repro/internal/net/server"
)

// The gossip universe. Every gossip workload uses the first nGroups
// groups; the net workloads seed netMembers members per group and
// gossip-churn seeds churnMembers, of which the first stableMembers
// never leave.
const (
	nGroups       = 4
	netMembers    = 8
	churnMembers  = 16
	stableMembers = 8
	payloadBytes  = 64
	pipelineDepth = 8

	// gossipd's -listen defaults.
	sendCost = 60
)

var (
	groupNames  = names("g", nGroups)
	memberNames = names("m", churnMembers)
	payload     = make([]byte, payloadBytes)
)

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// workloads is the benchmark's fixed set, in BENCHMARK.json order; that
// file and README.md say why each one exists. The warm-up counts were
// sized once, on the reference host with two clients, so that setup_s
// lands between 0.6 s and 0.7 s.
var workloads = []*workload{
	{
		name:   "net-rpc",
		kinds:  []kind{kUnicast, kLookup},
		warmup: 35000,
		stride: 1,
		build:  func(c int) (instance, error) { return newNetInst(c, false) },
	},
	{
		name:   "net-pipelined",
		kinds:  []kind{kUnicast, kLookup},
		warmup: 28000,
		stride: 1,
		build:  func(c int) (instance, error) { return newNetInst(c, true) },
	},
	{
		name:   "gossip-churn",
		kinds:  []kind{kUnicast, kMulticast, kLookup, kRegister, kUnregister},
		warmup: 400000,
		stride: 32,
		build:  func(c int) (instance, error) { return newGossipInst(c), nil },
	},
	{
		name:   "rangestore-scan",
		kinds:  []kind{kGet, kPut, kPutPair, kScan},
		warmup: 1500000,
		stride: 32,
		build:  func(c int) (instance, error) { return newRangeInst(), nil },
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// quiesced is the lock-leak oracle run after every epoch.
func quiesced(sems []*core.Semantic) error {
	for _, s := range sems {
		if n := s.OutstandingHolds(); n != 0 {
			return fmt.Errorf("instance %d: %d outstanding hold(s)", s.ID(), n)
		}
		if err := s.CheckQuiesced(); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// net-rpc and net-pipelined
// ---------------------------------------------------------------------

// netInst is a fresh server.New on loopback with one client.Conn per
// worker. The two net workloads differ only in what a worker sends.
type netInst struct {
	srv       *server.Server
	serveErr  chan error
	conns     []*client.Conn
	pipelined bool
	sent      []sentTally   // per worker; unicasts counts the acknowledged ones
	wrong     atomic.Uint64 // lookups of a seeded member that answered false
	broken    atomic.Pointer[error]
}

func newNetInst(c int, pipelined bool) (*netInst, error) {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", SendCost: sendCost})
	if err != nil {
		return nil, err
	}
	n := &netInst{
		srv:       srv,
		serveErr:  make(chan error, 1),
		pipelined: pipelined,
		sent:      make([]sentTally, c),
	}
	go func() { n.serveErr <- srv.Serve() }()
	addr := srv.Addr().String()
	seed, err := client.Dial(addr)
	if err != nil {
		return nil, errors.Join(err, n.close())
	}
	for _, g := range groupNames {
		for _, m := range memberNames[:netMembers] {
			if err := seed.Register(g, m); err != nil {
				seed.Close()
				return nil, errors.Join(err, n.close())
			}
		}
	}
	seed.Close()
	for i := 0; i < c; i++ {
		cc, err := client.Dial(addr)
		if err != nil {
			return nil, errors.Join(err, n.close())
		}
		n.conns = append(n.conns, cc)
	}
	return n, nil
}

func (n *netInst) sems() []*core.Semantic { return n.srv.Router().Sems() }
func (n *netInst) server() *server.Server { return n.srv }

// sentTally is one worker's delivery count, read after the worker has
// stopped and padded so two workers never share a cache line.
type sentTally struct {
	unicasts, multicasts uint64
	_                    [48]byte
}

// refused reports whether err is the server answering with an error
// frame: that fails the operation but leaves the connection usable.
func refused(err error) bool {
	var re *client.RespError
	return errors.As(err, &re)
}

func (n *netInst) worker(w int) stepFunc {
	c := n.conns[w]
	sent := &n.sent[w]
	lookupPct := uint64(50)
	if n.pipelined {
		lookupPct = 10
	}
	// fail accounts for an operation that did not complete; anything but
	// a refusal leaves the connection unusable, so the epoch is void.
	fail := func(err error) {
		if !refused(err) {
			n.broken.CompareAndSwap(nil, &err)
		}
	}
	return func(r *rng) (int, int, int) {
		x := r.next()
		g := groupNames[x&(nGroups-1)]
		m := memberNames[(x>>2)&(netMembers-1)]
		if (x>>8)%100 < lookupPct {
			found, err := c.Lookup(g, m)
			if err != nil {
				fail(err)
				return 1, 0, 1
			}
			if !found { // every member was seeded and nobody unregisters
				n.wrong.Add(1)
				return 1, 0, 1
			}
			return 1, 1, 0
		}
		if !n.pipelined {
			if err := c.Unicast(g, m, payload); err != nil {
				fail(err)
				return 0, 0, 1
			}
			sent.unicasts++
			return 0, 1, 0
		}
		ok, shed, err := c.UnicastWindow(g, m, payload, pipelineDepth)
		sent.unicasts += uint64(ok)
		if err != nil {
			fail(err)
			return 0, ok, pipelineDepth - ok
		}
		return 0, ok, shed
	}
}

func (n *netInst) close() error {
	var errs []error
	if p := n.broken.Load(); p != nil {
		errs = append(errs, fmt.Errorf("connection failed: %w", *p))
	}
	if w := n.wrong.Load(); w != 0 {
		errs = append(errs, fmt.Errorf("%d lookup(s) of a seeded member answered false", w))
	}
	for _, c := range n.conns {
		c.Close()
	}
	if err := n.srv.Shutdown(5 * time.Second); err != nil {
		errs = append(errs, err)
	}
	if err := <-n.serveErr; err != nil {
		errs = append(errs, fmt.Errorf("serve: %w", err))
	}
	if a := n.srv.ActiveConns(); a != 0 {
		errs = append(errs, fmt.Errorf("%d connection(s) still active after shutdown", a))
	}
	var acked, delivered uint64
	for i := range n.sent {
		acked += n.sent[i].unicasts
	}
	for _, g := range groupNames {
		for _, m := range memberNames[:netMembers] {
			if s := n.srv.Sink(g, m); s != nil {
				delivered += uint64(s.Frames.Load())
			}
		}
	}
	if delivered != acked {
		errs = append(errs, fmt.Errorf("sinks received %d frames, server acknowledged %d unicasts", delivered, acked))
	}
	if err := quiesced(n.sems()); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// ---------------------------------------------------------------------
// gossip-churn
// ---------------------------------------------------------------------

// gossipInst calls the router in process, through the gossip.Router
// interface plus Ours.Lookup. Members m0..m7 of every group stay
// registered and take all unicasts and lookups; m8..m15 register and
// unregister all the time, which is what multicast's whole-group mode
// conflicts with.
type gossipInst struct {
	ours   *gossip.Ours
	router gossip.Router
	sinks  [nGroups][churnMembers]*gossip.Conn
	sent   []sentTally
	wrong  atomic.Uint64 // lookups of a stable member that answered false
}

func newGossipInst(c int) *gossipInst {
	g := &gossipInst{
		ours: gossip.NewOursFused(sendCost, plan.Options{}),
		sent: make([]sentTally, c),
	}
	g.router = g.ours
	for gi, gn := range groupNames {
		for mi, mn := range memberNames {
			g.sinks[gi][mi] = gossip.NewConn(mn, sendCost)
			g.router.Register(gn, mn, g.sinks[gi][mi])
		}
	}
	return g
}

func (g *gossipInst) sems() []*core.Semantic { return g.ours.Sems() }
func (g *gossipInst) server() *server.Server { return nil }

func (g *gossipInst) worker(w int) stepFunc {
	sent := &g.sent[w]
	return func(r *rng) (int, int, int) {
		x := r.next()
		gi := x & (nGroups - 1)
		gn := groupNames[gi]
		stable := (x >> 2) & (stableMembers - 1)
		churn := stableMembers + stable
		switch p := (x >> 8) % 100; {
		case p < 40:
			g.router.Unicast(gn, memberNames[stable], payload)
			sent.unicasts++
			return 0, 1, 0
		case p < 50:
			g.router.Multicast(gn, payload)
			sent.multicasts++
			return 1, 1, 0
		case p < 80:
			if !g.ours.Lookup(gn, memberNames[stable]) {
				g.wrong.Add(1)
				return 2, 0, 1
			}
			return 2, 1, 0
		case p < 90:
			g.router.Register(gn, memberNames[churn], g.sinks[gi][churn])
			return 3, 1, 0
		default:
			g.router.Unregister(gn, memberNames[churn])
			return 4, 1, 0
		}
	}
}

func (g *gossipInst) close() error {
	var want, got uint64
	for i := range g.sent {
		want += g.sent[i].unicasts + stableMembers*g.sent[i].multicasts
	}
	for gi := range g.sinks {
		for mi := 0; mi < stableMembers; mi++ {
			got += uint64(g.sinks[gi][mi].Frames.Load())
		}
	}
	if got != want {
		return fmt.Errorf("stable sinks received %d frames, want %d", got, want)
	}
	if n := g.wrong.Load(); n != 0 {
		return fmt.Errorf("%d lookup(s) of a stable member answered false", n)
	}
	return quiesced(g.sems())
}

// ---------------------------------------------------------------------
// rangestore-scan
// ---------------------------------------------------------------------

// The store is preloaded with every pair, so all rangeCap keys are
// present. PutPair toggles only pairs (k, k+rangeCap/2) with k below
// rangeToggle; Put overwrites only the other keys, which are therefore
// always present, so a Put never changes the entry count and Scan's
// even-count oracle stays sound.
const (
	rangeShards = 8
	rangeCap    = 4096
	rangeToggle = rangeCap / 4
)

type rangeInst struct {
	store *rangestore.Store
	torn  atomic.Uint64 // scans that returned an odd or impossible count
	wrong atomic.Uint64 // gets of a never-removed key that found nothing
}

func newRangeInst() *rangeInst {
	s := &rangeInst{store: rangestore.New(rangeShards, rangeCap)}
	for k := 0; k < rangeCap/2; k++ {
		s.store.PutPair(k)
	}
	return s
}

func (s *rangeInst) sems() []*core.Semantic { return s.store.Sems() }
func (s *rangeInst) server() *server.Server { return nil }

// toggled reports whether PutPair may have removed key k.
func toggled(k int) bool { return k%(rangeCap/2) < rangeToggle }

func (s *rangeInst) worker(int) stepFunc {
	var stored core.Value = 1 // boxed once; Put's value is not the subject
	return func(r *rng) (int, int, int) {
		x := r.next()
		switch p := (x >> 8) % 100; {
		case p < 88:
			k := int((x >> 16) % rangeCap)
			if s.store.Get(k) == nil && !toggled(k) {
				s.wrong.Add(1)
				return 0, 0, 1
			}
			return 0, 1, 0
		case p < 93:
			// A key outside the toggled quarter of either half.
			k := rangeToggle + int((x>>16)%(rangeCap/2-rangeToggle)) + int((x>>40)&1)*(rangeCap/2)
			s.store.Put(k, stored)
			return 1, 1, 0
		case p < 98:
			s.store.PutPair(int((x >> 16) % rangeToggle))
			return 2, 1, 0
		default:
			n := s.store.Scan()
			if n%2 != 0 || n < rangeCap-2*rangeToggle || n > rangeCap {
				s.torn.Add(1)
				return 3, 0, 1
			}
			return 3, 1, 0
		}
	}
}

func (s *rangeInst) close() error {
	if n := s.torn.Load(); n != 0 {
		return fmt.Errorf("%d scan(s) returned an odd or impossible entry count", n)
	}
	if n := s.wrong.Load(); n != 0 {
		return fmt.Errorf("%d get(s) of a never-removed key found nothing", n)
	}
	if n := s.store.Scan(); n%2 != 0 {
		return fmt.Errorf("final scan counts %d entries, want an even number", n)
	}
	return quiesced(s.sems())
}
