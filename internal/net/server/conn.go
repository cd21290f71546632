package server

import (
	"errors"
	"net"

	"repro/internal/apps/gossip"
	"repro/internal/core"
	"repro/internal/net/wire"
)

// conn is one client connection, served by one goroutine: it reads
// requests into the frame reader's buffer, parses them where they lie,
// runs their sections and writes the replies itself, one write per
// batch.
//
// Every buffer here is connection-owned and reused: the frame reader's
// buffer (a batch's parsed requests alias it until the batch is
// answered), the reply buffer, the parsed-request scratch, the SendReq
// scratch, the LockBatch scratch and the intern table. The scratch
// slices start empty and grow to the largest batch the client sends, so
// a connection that never pipelines never pays for MaxBatch. After
// warmup the loop allocates nothing.
type conn struct {
	s   *Server
	nc  net.Conn
	fr  *wire.Reader
	out []byte

	reqs     []wire.Req
	sendReqs []gossip.SendReq
	sc       gossip.BatchScratch

	// names interns decoded group/member names into pre-boxed
	// core.Values: the map lookup keyed by string(b) is allocation-free
	// on a hit, so a steady connection boxes each name exactly once.
	names map[string]core.Value
}

const (
	// maxIntern caps one connection's intern table; a client cycling
	// through more names than this re-boxes the overflow per request
	// instead of growing without bound.
	maxIntern = 4096

	// readBufSize is a connection's initial frame buffer. It holds a
	// full default batch (16 unicasts with 64-byte payloads are 1.2 KiB)
	// and grows only for a larger frame.
	readBufSize = 2 << 10
)

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		s:     s,
		nc:    nc,
		fr:    wire.NewReader(nc, readBufSize, s.cfg.MaxFrame),
		names: make(map[string]core.Value),
	}
}

func (c *conn) intern(b []byte) core.Value {
	if v, ok := c.names[string(b)]; ok {
		return v
	}
	s := string(b)
	v := core.Value(s)
	if len(c.names) < maxIntern {
		c.names[s] = v
	}
	return v
}

// serve is the connection's goroutine. Each pass takes one frame with a
// blocking read, drains the complete frames the client already
// pipelined behind it (the drain never blocks mid-batch), answers them
// in order and writes every reply with one write. The deferred teardown
// closes the socket and only then drops off the server's connection
// set, so Shutdown's wait observes fully-written, fully-closed
// connections.
func (c *conn) serve() {
	defer c.close()
	for !c.s.closing.Load() {
		body, err := c.fr.Next()
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// The stream cannot be resynced past an oversized frame:
				// tell the client why, then close.
				c.s.Stats.Decode.Add(1)
				c.write(c.respErr(c.out[:0], wire.CodeMalformed))
			}
			// EOF, reset, or the shutdown read deadline: just close.
			return
		}
		c.reqs = c.reqs[:0]
		perr := c.parse(body)
		for perr == nil && len(c.reqs) < c.s.cfg.MaxBatch {
			body, ok := c.fr.Buffered()
			if !ok {
				break
			}
			perr = c.parse(body)
		}
		// A malformed frame is answered after the well-formed prefix, and
		// then the connection closes.
		out := c.process(c.reqs, c.out[:0])
		if perr != nil {
			c.s.Stats.Decode.Add(1)
			out = c.respErr(out, wire.CodeMalformed)
		}
		if !c.write(out) || perr != nil {
			return
		}
	}
}

// parse appends one request to the batch.
func (c *conn) parse(body []byte) error {
	req, err := wire.ParseReq(body)
	if err != nil {
		return err
	}
	c.s.Stats.FramesIn[int(req.Kind)].Add(1)
	c.reqs = append(c.reqs, req)
	return nil
}

// write sends one batch's replies and keeps the buffer for the next.
func (c *conn) write(out []byte) bool {
	c.out = out[:0]
	_, err := c.nc.Write(out)
	return err == nil
}

func (c *conn) close() {
	c.nc.Close()
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
	c.s.Stats.Closed.Add(1)
	c.s.Stats.Active.Add(-1)
	c.s.wg.Done()
}

// process answers a batch of parsed requests in order, fusing each run
// of ≥2 adjacent unicasts into one UnicastBatchErrV section.
func (c *conn) process(reqs []wire.Req, resp []byte) []byte {
	for i := 0; i < len(reqs); {
		if reqs[i].Kind == wire.KindUnicast {
			j := i + 1
			for j < len(reqs) && reqs[j].Kind == wire.KindUnicast {
				j++
			}
			if j-i >= 2 {
				resp = c.unicastRun(reqs[i:j], resp)
				i = j
				continue
			}
		}
		resp = c.handleOne(reqs[i], resp)
		i++
	}
	return resp
}

// unicastRun routes a pipelined run of unicasts through the fused
// LockBatch prologue. The whole run succeeds or fails as one unit: a
// breaker refusal (before any lock is touched) or a prologue that
// stalled past the policy's patience (before any send) answers every
// frame in the run with the same error code.
func (c *conn) unicastRun(run []wire.Req, resp []byte) []byte {
	c.sendReqs = c.sendReqs[:0]
	for i := range run {
		c.sendReqs = append(c.sendReqs, gossip.SendReq{
			Group:   c.intern(run[i].Group),
			Dst:     c.intern(run[i].A),
			Payload: run[i].Payload,
		})
	}
	c.s.Stats.Batches.Add(1)
	c.s.Stats.Batched.Add(uint64(len(run)))
	if err := c.s.router.UnicastBatchErrV(c.sendReqs, &c.sc); err != nil {
		code := errCode(err)
		for range run {
			resp = c.respErr(resp, code)
		}
		return resp
	}
	for range run {
		resp = c.respOK(resp)
	}
	return resp
}

func (c *conn) handleOne(req wire.Req, resp []byte) []byte {
	r := c.s.router
	var err error
	switch req.Kind {
	case wire.KindRegister:
		// Registration is membership churn, not the steady state: the
		// sink map keys allocate here and nowhere else.
		sink := c.s.sink(string(req.Group), string(req.A))
		err = r.RegisterErrV(c.intern(req.Group), c.intern(req.A), sink)
	case wire.KindUnregister:
		err = r.UnregisterErrV(c.intern(req.Group), c.intern(req.A))
	case wire.KindUnicast:
		err = r.UnicastErrV(c.intern(req.Group), c.intern(req.A), req.Payload)
	case wire.KindMulticast:
		err = r.MulticastErrV(c.intern(req.Group), req.Payload)
	case wire.KindLookup:
		var found bool
		if found, err = r.LookupErrV(c.intern(req.Group), c.intern(req.A)); err == nil {
			return c.respBool(resp, found)
		}
	default:
		// ParseReq admits no other kinds; answer malformed defensively.
		return c.respErr(resp, wire.CodeMalformed)
	}
	if err != nil {
		return c.respErr(resp, errCode(err))
	}
	return c.respOK(resp)
}

func (c *conn) respOK(resp []byte) []byte {
	c.s.Stats.FramesOut[wire.KindOK].Add(1)
	return wire.AppendOK(resp)
}

func (c *conn) respBool(resp []byte, v bool) []byte {
	c.s.Stats.FramesOut[wire.KindBool].Add(1)
	return wire.AppendBool(resp, v)
}

func (c *conn) respErr(resp []byte, code byte) []byte {
	c.s.Stats.FramesOut[wire.KindErr].Add(1)
	c.s.Stats.Errors.Add(1)
	if code == wire.CodeShed || code == wire.CodeBreakerOpen {
		c.s.Stats.Shed.Add(1)
	}
	return wire.AppendErr(resp, code)
}

// Exerciser drives the server's decode→handle→encode path without a
// socket: the alloc-pin test and the in-process benchmark baseline run
// the exact handling code a connection's goroutine runs, minus the
// kernel. One Exerciser is one virtual connection (own intern table and
// scratch); it is not safe for concurrent use.
type Exerciser struct{ c *conn }

// Exerciser returns a new virtual connection over the server's router.
func (s *Server) Exerciser() *Exerciser {
	return &Exerciser{c: &conn{s: s, names: make(map[string]core.Value)}}
}

// Handle parses one frame body and appends its response frame to resp.
func (e *Exerciser) Handle(body, resp []byte) ([]byte, error) {
	e.c.reqs = e.c.reqs[:0]
	if err := e.c.parse(body); err != nil {
		return resp, err
	}
	return e.c.process(e.c.reqs, resp), nil
}

// HandleBatch parses a pipelined run of bodies and processes it with
// the same unicast-run fusion a connection applies.
func (e *Exerciser) HandleBatch(bodies [][]byte, resp []byte) ([]byte, error) {
	e.c.reqs = e.c.reqs[:0]
	for _, b := range bodies {
		if err := e.c.parse(b); err != nil {
			return resp, err
		}
	}
	return e.c.process(e.c.reqs, resp), nil
}
