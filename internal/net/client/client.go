// Package client is the wire protocol's client side: a blocking
// per-connection RPC surface over the frames in internal/net/wire, a
// pipelined window primitive that exercises the server's batch fusion,
// and a closed-loop load generator that sweeps connection counts and
// read fractions for the networked benchmark.
//
// Like the server, a Conn owns all its buffers: one encode buffer and
// one frame reader whose responses are parsed where they were read,
// both reused across calls, so a steady client loop does not allocate.
package client

import (
	"fmt"
	"net"

	"repro/internal/net/wire"
)

// RespError is a server-side refusal carried in a KindErr frame: the
// wire form of a shed, an open breaker, a stall, or a decode error.
type RespError struct{ Code byte }

func (e *RespError) Error() string {
	return "wire: server refused: " + wire.CodeString(e.Code)
}

// Shed reports whether the refusal is load shedding (admission gate or
// breaker) — expected under pressure, and accounted separately from
// hard failures by the load generator.
func (e *RespError) Shed() bool {
	return e.Code == wire.CodeShed || e.Code == wire.CodeBreakerOpen
}

// Conn is one client connection. Not safe for concurrent use; the load
// generator gives each worker goroutine its own.
type Conn struct {
	nc  net.Conn
	fr  *wire.Reader
	out []byte
}

// respBufSize is the frame reader's initial buffer: a response frame is
// at most 6 bytes, so this holds the replies to a 40-deep window.
const respBufSize = 256

// Dial connects to a gossip server.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Conn{nc: nc, fr: wire.NewReader(nc, respBufSize, 0)}, nil
}

// Close closes the connection.
func (c *Conn) Close() error { return c.nc.Close() }

// flush writes the accumulated request bytes.
func (c *Conn) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	_, err := c.nc.Write(c.out)
	c.out = c.out[:0]
	return err
}

// recv reads one response frame.
func (c *Conn) recv() (wire.Resp, error) {
	body, err := c.fr.Next()
	if err != nil {
		return wire.Resp{}, err
	}
	return wire.ParseResp(body)
}

// expectOK maps one response to the RPC's error result.
func (c *Conn) expectOK() error {
	resp, err := c.recv()
	if err != nil {
		return err
	}
	switch resp.Kind {
	case wire.KindOK:
		return nil
	case wire.KindErr:
		return &RespError{Code: resp.Code}
	}
	return fmt.Errorf("wire: unexpected %v response", resp.Kind)
}

// Register adds member to group.
func (c *Conn) Register(group, member string) error {
	out, err := wire.AppendRegister(c.out[:0], group, member)
	if err != nil {
		return err
	}
	c.out = out
	if err := c.flush(); err != nil {
		return err
	}
	return c.expectOK()
}

// Unregister removes member from group.
func (c *Conn) Unregister(group, member string) error {
	out, err := wire.AppendUnregister(c.out[:0], group, member)
	if err != nil {
		return err
	}
	c.out = out
	if err := c.flush(); err != nil {
		return err
	}
	return c.expectOK()
}

// Unicast sends payload to one member of group.
func (c *Conn) Unicast(group, to string, payload []byte) error {
	out, err := wire.AppendUnicast(c.out[:0], group, to, payload)
	if err != nil {
		return err
	}
	c.out = out
	if err := c.flush(); err != nil {
		return err
	}
	return c.expectOK()
}

// Multicast sends payload to every member of group.
func (c *Conn) Multicast(group string, payload []byte) error {
	out, err := wire.AppendMulticast(c.out[:0], group, payload)
	if err != nil {
		return err
	}
	c.out = out
	if err := c.flush(); err != nil {
		return err
	}
	return c.expectOK()
}

// Lookup reports whether member is registered in group.
func (c *Conn) Lookup(group, member string) (bool, error) {
	out, err := wire.AppendLookup(c.out[:0], group, member)
	if err != nil {
		return false, err
	}
	c.out = out
	if err := c.flush(); err != nil {
		return false, err
	}
	resp, err := c.recv()
	if err != nil {
		return false, err
	}
	switch resp.Kind {
	case wire.KindBool:
		return resp.Bool, nil
	case wire.KindErr:
		return false, &RespError{Code: resp.Code}
	}
	return false, fmt.Errorf("wire: unexpected %v response", resp.Kind)
}

// UnicastWindow pipelines n unicasts in one write and reads all n
// responses — the client side of the server's adjacent-unicast batch
// fusion. It returns how many were delivered and how many the server
// shed; any other failure (I/O, protocol, non-shed refusal) is the
// error.
func (c *Conn) UnicastWindow(group, to string, payload []byte, n int) (ok, shed int, err error) {
	out := c.out[:0]
	for i := 0; i < n; i++ {
		if out, err = wire.AppendUnicast(out, group, to, payload); err != nil {
			return 0, 0, err
		}
	}
	c.out = out
	if err := c.flush(); err != nil {
		return 0, 0, err
	}
	for i := 0; i < n; i++ {
		resp, err := c.recv()
		if err != nil {
			return ok, shed, err
		}
		switch {
		case resp.Kind == wire.KindOK:
			ok++
		case resp.Kind == wire.KindErr:
			re := &RespError{Code: resp.Code}
			if !re.Shed() {
				return ok, shed, re
			}
			shed++
		default:
			return ok, shed, fmt.Errorf("wire: unexpected %v response", resp.Kind)
		}
	}
	return ok, shed, nil
}
