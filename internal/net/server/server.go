// Package server puts the gossip router behind a real TCP listener:
// the wire package's length-prefixed frames arrive on one goroutine per
// connection, run through the same semlock-compiled sections the
// in-process benchmarks measure, and are answered by the same goroutine
// — so every scaling claim the lock mechanism makes is exercised across
// syscalls, scheduler churn, and GC pressure.
//
// Hot-path discipline: the steady-state decode→handle→encode path
// allocates nothing. Requests are parsed in place in the connection's
// read buffer, group/member names are interned into pre-boxed
// core.Values once per connection (the router's V entry points take
// them boxed, so no string header is re-allocated per request),
// responses are encoded into one reusable reply buffer, and the
// per-frame-type counters are padded atomics. A connection that sends
// small frames costs one goroutine and a few KiB of buffers.
//
// Pipelining: when a client has more requests already buffered on the
// connection, the goroutine drains up to maxBatch of them, a run of
// adjacent unicasts becomes ONE atomic section with a fused LockBatch
// prologue (gossip.Resilient.UnicastBatchErrV), and the batch's
// replies leave in one write. Responses keep request order.
//
// Resilience: every frame runs through the router's policied forms
// (gossip.Resilient), with or without a Policy — a nil Policy has no
// breaker and no bound, so those forms then block like the plain ones.
// With a Policy, an open breaker's refusal (CodeBreakerOpen) is written
// before any lock is touched, a stalled section answers CodeStall, and
// the connection keeps serving.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/gossip"
	"repro/internal/core"
	"repro/internal/net/wire"
	"repro/internal/padded"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// Config assembles a server.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0", ":7946").
	Addr string
	// SendCost is the synthetic per-delivered-frame downstream I/O cost
	// burned by the member sinks (the same DESIGN.md substitution 5 the
	// in-process MPerf uses, which keeps the in-process-vs-networked
	// comparison honest: only the request wire path differs).
	SendCost int
	// Router, when non-nil, serves this router instead of building one
	// (benchmarks share one router between wire and in-process cells).
	Router *gossip.Ours
	// Policy, when non-nil, puts every section under the resilience
	// layer's breaker and patience; refusals become wire error frames.
	Policy *resilience.Policy
}

// Counters is the server's allocation-free hot-path accounting: padded
// atomics bumped by the connection goroutines, materialized into
// telemetry.NetStats rows only when a snapshot reader asks.
type Counters struct {
	Accepted padded.Uint64
	Closed   padded.Uint64
	Active   padded.Int64

	FramesIn  [wire.KindMax]padded.Uint64 // by request kind
	FramesOut [wire.KindMax]padded.Uint64 // by response kind
	Shed      padded.Uint64               // error frames from admission refusals (breaker open)
	Errors    padded.Uint64               // all error frames sent
	Decode    padded.Uint64               // malformed/oversized frames (connection closed after)
	Batches   padded.Uint64               // fused unicast batches executed
	Batched   padded.Uint64               // frames inside those batches
}

// Server is one TCP listener over one gossip router.
type Server struct {
	cfg    Config
	ln     net.Listener
	router *gossip.Resilient // the router under cfg.Policy, which may be nil

	Stats Counters

	mu    sync.Mutex
	conns map[*conn]struct{}
	sinks map[sinkKey]*gossip.Conn

	closing  atomic.Bool
	wg       sync.WaitGroup // accept loop + connection goroutines
	acceptWG sync.WaitGroup
}

type sinkKey struct{ group, member string }

// New creates a server and starts listening (but not accepting; call
// Serve).
func New(cfg Config) (*Server, error) {
	ours := cfg.Router
	if ours == nil {
		ours = gossip.NewOurs()
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:    cfg,
		ln:     ln,
		router: gossip.NewResilient(ours, cfg.Policy),
		conns:  make(map[*conn]struct{}),
		sinks:  make(map[sinkKey]*gossip.Conn),
	}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Router returns the served router (lock audit, telemetry providers).
func (s *Server) Router() *gossip.Ours { return s.router.Ours }

// Serve runs the accept loop until Shutdown (or a fatal listener
// error). It blocks; run it on its own goroutine.
func (s *Server) Serve() error {
	s.acceptWG.Add(1)
	defer s.acceptWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return nil
			}
			return err
		}
		if s.closing.Load() {
			nc.Close()
			continue
		}
		s.Stats.Accepted.Add(1)
		s.Stats.Active.Add(1)
		c := newConn(s, nc)
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go c.serve()
	}
}

// Shutdown drains the server, reusing the gossipd discipline: stop
// accepting, let every in-flight request finish and its response flush,
// then close the connections. It returns an error if the drain misses
// the deadline with connections still busy; ActiveConns reports what
// leaked.
func (s *Server) Shutdown(deadline time.Duration) error {
	s.closing.Store(true)
	s.ln.Close()
	s.acceptWG.Wait()
	// Unblock idle connections parked in a socket read: a deadline in
	// the past makes the pending read return immediately, and the
	// goroutine exits. Busy connections answer their current batch and
	// write the replies first, then observe closing — the deadline only
	// affects the socket read, never a section in flight or its reply.
	s.mu.Lock()
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Unix(1, 0))
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(deadline):
		return fmt.Errorf("server: drain deadline %v exceeded with %d connection(s) still busy", deadline, s.ActiveConns())
	}
}

// ActiveConns returns the live connection gauge.
func (s *Server) ActiveConns() int64 { return s.Stats.Active.Load() }

// sink returns the delivery sink registered under (group, member),
// creating it on first registration. Idempotent re-registration reuses
// the sink so its delivered-frame counters survive membership churn.
func (s *Server) sink(group, member string) *gossip.Conn {
	k := sinkKey{group, member}
	s.mu.Lock()
	c, ok := s.sinks[k]
	if !ok {
		c = gossip.NewConn(member, s.cfg.SendCost)
		s.sinks[k] = c
	}
	s.mu.Unlock()
	return c
}

// Sink exposes a delivery sink for tests and benchmarks (nil when the
// member never registered).
func (s *Server) Sink(group, member string) *gossip.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sinks[sinkKey{group, member}]
}

// NetStats materializes the counters into telemetry rows; register it
// with telemetry.Registry.RegisterNetSource. Map building happens here,
// on the snapshot reader — never on the wire path.
func (s *Server) NetStats() []telemetry.NetStats {
	row := telemetry.NetStats{
		Server: s.ln.Addr().String(),
		Conns: map[string]uint64{
			"accepted": s.Stats.Accepted.Load(),
			"closed":   s.Stats.Closed.Load(),
			"active":   uint64(s.Stats.Active.Load()),
		},
		Frames: map[string]uint64{
			"shed":           s.Stats.Shed.Load(),
			"errors":         s.Stats.Errors.Load(),
			"decode_errors":  s.Stats.Decode.Load(),
			"batches":        s.Stats.Batches.Load(),
			"batched_frames": s.Stats.Batched.Load(),
		},
	}
	var totalIn, totalOut uint64
	for k := 0; k < wire.KindMax; k++ {
		if n := s.Stats.FramesIn[k].Load(); n > 0 {
			row.Frames["in."+wire.Kind(k).String()] = n
			totalIn += n
		}
		if n := s.Stats.FramesOut[k].Load(); n > 0 {
			row.Frames["out."+wire.Kind(k).String()] = n
			totalOut += n
		}
	}
	row.Frames["in.total"] = totalIn
	row.Frames["out.total"] = totalOut
	return []telemetry.NetStats{row}
}

// errCode maps a section failure to its wire code.
func errCode(err error) byte {
	var stall *core.StallError
	switch {
	case errors.Is(err, resilience.ErrBreakerOpen):
		return wire.CodeBreakerOpen
	case errors.As(err, &stall):
		return wire.CodeStall
	}
	return wire.CodeInternal
}
