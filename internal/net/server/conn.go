package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"

	"repro/internal/apps/gossip"
	"repro/internal/core"
	"repro/internal/net/wire"
)

// conn is one client connection: a reader goroutine that decodes,
// batches, and runs sections, and a writer goroutine that flushes
// encoded responses — decoupled through a two-buffer swap so the reader
// starts the next batch while the previous batch's responses are still
// in the kernel's send queue.
//
// Every buffer here is connection-owned and reused: frame slots (one
// per batch position, so a fused unicast run can alias all its payloads
// at once), the parsed-request scratch, the SendReq scratch, the
// LockBatch scratch, the intern table, and the two response buffers.
// After warmup the loop allocates nothing.
type conn struct {
	s  *Server
	nc net.Conn
	br *bufio.Reader

	// Response buffers circulate reader→writeCh→writer→freeCh→reader.
	// Capacity 2 on both channels means neither side ever blocks handing
	// a buffer back.
	writeCh    chan []byte
	freeCh     chan []byte
	writerDone chan struct{}

	// frameBufs[i] backs the i-th frame of the current batch; parsed
	// requests alias these slots until the batch is processed.
	frameBufs [][]byte
	reqs      []wire.Req
	sendReqs  []gossip.SendReq
	sc        gossip.BatchScratch

	// names interns decoded group/member names into pre-boxed
	// core.Values: the map lookup keyed by string(b) is allocation-free
	// on a hit, so a steady connection boxes each name exactly once.
	names map[string]core.Value
}

// maxIntern caps one connection's intern table; a client cycling
// through more names than this re-boxes the overflow per request
// instead of growing without bound.
const maxIntern = 4096

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		s:          s,
		nc:         nc,
		br:         bufio.NewReaderSize(nc, 32<<10),
		writeCh:    make(chan []byte, 2),
		freeCh:     make(chan []byte, 2),
		writerDone: make(chan struct{}),
		frameBufs:  make([][]byte, s.cfg.MaxBatch),
		reqs:       make([]wire.Req, 0, s.cfg.MaxBatch),
		sendReqs:   make([]gossip.SendReq, 0, s.cfg.MaxBatch),
		names:      make(map[string]core.Value),
	}
	c.freeCh <- make([]byte, 0, 4<<10)
	c.freeCh <- make([]byte, 0, 4<<10)
	return c
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

// readLoop is the connection's request side. It owns the deferred
// teardown: close the write channel, wait for the writer to flush what
// it has, close the socket, and only then drop off the server's
// connection set — so Shutdown's wait observes fully-flushed,
// fully-closed connections.
func (c *conn) readLoop() {
	go c.writeLoop()
	defer func() {
		close(c.writeCh)
		<-c.writerDone
		c.nc.Close()
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.mu.Unlock()
		c.s.Stats.Closed.Add(1)
		c.s.Stats.Active.Add(-1)
		c.s.wg.Done()
	}()
	resp := <-c.freeCh
	for {
		if c.s.closing.Load() {
			return
		}
		// Blocking read of the batch's first frame.
		body, buf, err := wire.ReadFrame(c.br, c.frameBufs[0], c.s.cfg.MaxFrame)
		c.frameBufs[0] = buf
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// The stream cannot be resynced past an oversized frame:
				// tell the client why, flush, close.
				c.s.Stats.Decode.Add(1)
				c.writeCh <- c.respErr(resp, wire.CodeMalformed)
			}
			// EOF, reset, or the shutdown read deadline: just close.
			return
		}
		c.reqs = c.reqs[:0]
		req, perr := wire.ParseReq(body)
		if perr != nil {
			c.s.Stats.Decode.Add(1)
			c.writeCh <- c.respErr(resp, wire.CodeMalformed)
			return
		}
		c.s.Stats.FramesIn[int(req.Kind)].Add(1)
		c.reqs = append(c.reqs, req)

		// Drain frames the client already pipelined: peek each length
		// prefix and take the frame only if it is completely buffered, so
		// the drain never blocks mid-batch. Each frame lands in its own
		// slot; a run of adjacent unicasts then fuses into one section.
		for len(c.reqs) < c.s.cfg.MaxBatch {
			if c.br.Buffered() < wire.HeaderLen {
				break
			}
			hdr, _ := c.br.Peek(wire.HeaderLen)
			n := int(binary.BigEndian.Uint32(hdr))
			if n > c.s.cfg.MaxFrame || c.br.Buffered() < wire.HeaderLen+n {
				// Oversized (next blocking read reports it) or not fully
				// buffered yet: stop draining, serve what we have.
				break
			}
			slot := len(c.reqs)
			body, buf, err := wire.ReadFrame(c.br, c.frameBufs[slot], c.s.cfg.MaxFrame)
			c.frameBufs[slot] = buf
			if err != nil {
				c.writeCh <- c.process(c.reqs, resp)
				return
			}
			req, perr := wire.ParseReq(body)
			if perr != nil {
				// Answer the well-formed prefix, then the error, then close.
				resp = c.process(c.reqs, resp)
				c.s.Stats.Decode.Add(1)
				c.writeCh <- c.respErr(resp, wire.CodeMalformed)
				return
			}
			c.s.Stats.FramesIn[int(req.Kind)].Add(1)
			c.reqs = append(c.reqs, req)
		}

		c.writeCh <- c.process(c.reqs, resp)
		resp = <-c.freeCh
	}
}

// writeLoop flushes encoded response buffers and hands them back. On a
// write error it closes the socket (unblocking the reader) and keeps
// draining so buffer circulation never deadlocks.
func (c *conn) writeLoop() {
	defer close(c.writerDone)
	failed := false
	for buf := range c.writeCh {
		if !failed && len(buf) > 0 {
			if _, err := c.nc.Write(buf); err != nil {
				failed = true
				c.nc.Close()
			}
		}
		c.freeCh <- buf[:0]
	}
}

// process answers a batch of parsed requests in order, fusing each run
// of ≥2 adjacent unicasts into one UnicastBatchV section.
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
// LockBatch prologue. Under a policy the whole run succeeds or fails as
// one unit: a shed (before any lock is touched) or a prologue that
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
	if r := c.s.resil; r != nil {
		if err := r.UnicastBatchErrV(c.sendReqs, &c.sc); err != nil {
			code := errCode(err)
			for range run {
				resp = c.respErr(resp, code)
			}
			return resp
		}
	} else {
		c.s.ours.UnicastBatchV(c.sendReqs, &c.sc)
	}
	for range run {
		resp = c.respOK(resp)
	}
	return resp
}

func (c *conn) handleOne(req wire.Req, resp []byte) []byte {
	switch req.Kind {
	case wire.KindRegister:
		g, m := c.intern(req.Group), c.intern(req.A)
		// Registration is membership churn, not the steady state: the
		// sink map keys allocate here and nowhere else.
		sink := c.s.sink(string(req.Group), string(req.A))
		if r := c.s.resil; r != nil {
			if err := r.RegisterErrV(g, m, sink); err != nil {
				return c.respErr(resp, errCode(err))
			}
		} else {
			c.s.ours.RegisterV(g, m, sink)
		}
		return c.respOK(resp)

	case wire.KindUnregister:
		g, m := c.intern(req.Group), c.intern(req.A)
		if r := c.s.resil; r != nil {
			if err := r.UnregisterErrV(g, m); err != nil {
				return c.respErr(resp, errCode(err))
			}
		} else {
			c.s.ours.UnregisterV(g, m)
		}
		return c.respOK(resp)

	case wire.KindUnicast:
		g, m := c.intern(req.Group), c.intern(req.A)
		if r := c.s.resil; r != nil {
			if err := r.UnicastErrV(g, m, req.Payload); err != nil {
				return c.respErr(resp, errCode(err))
			}
		} else {
			c.s.ours.UnicastV(g, m, req.Payload)
		}
		return c.respOK(resp)

	case wire.KindMulticast:
		g := c.intern(req.Group)
		if r := c.s.resil; r != nil {
			if err := r.MulticastErrV(g, req.Payload); err != nil {
				return c.respErr(resp, errCode(err))
			}
		} else {
			c.s.ours.MulticastV(g, req.Payload)
		}
		return c.respOK(resp)

	case wire.KindLookup:
		g, m := c.intern(req.Group), c.intern(req.A)
		if r := c.s.resil; r != nil {
			found, err := r.LookupErrV(g, m)
			if err != nil {
				return c.respErr(resp, errCode(err))
			}
			return c.respBool(resp, found)
		}
		return c.respBool(resp, c.s.ours.LookupV(g, m))
	}
	// ParseReq admits no other kinds; answer malformed defensively.
	return c.respErr(resp, wire.CodeMalformed)
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
// the exact handling code the reader goroutines run, minus the kernel.
// One Exerciser is one virtual connection (own intern table and
// scratch); it is not safe for concurrent use.
type Exerciser struct{ c *conn }

// Exerciser returns a new virtual connection over the server's router.
func (s *Server) Exerciser() *Exerciser {
	return &Exerciser{c: &conn{
		s:        s,
		reqs:     make([]wire.Req, 0, s.cfg.MaxBatch),
		sendReqs: make([]gossip.SendReq, 0, s.cfg.MaxBatch),
		names:    make(map[string]core.Value),
	}}
}

// Handle parses one frame body and appends its response frame to resp.
func (e *Exerciser) Handle(body, resp []byte) ([]byte, error) {
	req, err := wire.ParseReq(body)
	if err != nil {
		return resp, err
	}
	e.c.s.Stats.FramesIn[int(req.Kind)].Add(1)
	e.c.reqs = append(e.c.reqs[:0], req)
	return e.c.process(e.c.reqs, resp), nil
}

// HandleBatch parses a pipelined run of bodies and processes it with
// the same unicast-run fusion the reader applies.
func (e *Exerciser) HandleBatch(bodies [][]byte, resp []byte) ([]byte, error) {
	e.c.reqs = e.c.reqs[:0]
	for _, b := range bodies {
		req, err := wire.ParseReq(b)
		if err != nil {
			return resp, err
		}
		e.c.s.Stats.FramesIn[int(req.Kind)].Add(1)
		e.c.reqs = append(e.c.reqs, req)
	}
	return e.c.process(e.c.reqs, resp), nil
}
