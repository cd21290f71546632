package server

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/net/wire"
	"repro/internal/resilience"
)

// client is a minimal test-side wire client over one connection.
type client struct {
	t  *testing.T
	nc net.Conn
	fr *wire.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return &client{t: t, nc: nc, fr: wire.NewReader(nc, 64, 0)}
}

func (c *client) close() { c.nc.Close() }

func (c *client) send(frames ...[]byte) {
	c.t.Helper()
	var all []byte
	for _, f := range frames {
		all = append(all, f...)
	}
	if _, err := c.nc.Write(all); err != nil {
		c.t.Fatalf("write: %v", err)
	}
}

func (c *client) recv() wire.Resp {
	c.t.Helper()
	body, err := c.fr.Next()
	if err != nil {
		c.t.Fatalf("read response: %v", err)
	}
	resp, err := wire.ParseResp(body)
	if err != nil {
		c.t.Fatalf("parse response: %v", err)
	}
	return resp
}

// recvErr reads one frame tolerating stream end; ok reports whether a
// response arrived.
func (c *client) recvErr() (wire.Resp, bool) {
	body, err := c.fr.Next()
	if err != nil {
		return wire.Resp{}, false
	}
	resp, err := wire.ParseResp(body)
	if err != nil {
		return wire.Resp{}, false
	}
	return resp, true
}

func frame(f []byte, err error) []byte {
	if err != nil {
		panic(err) // encode helpers only fail on invalid names
	}
	return f
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	go s.Serve()
	return s
}

func checkNoLeaks(t *testing.T, s *Server) {
	t.Helper()
	if n := s.ActiveConns(); n != 0 {
		t.Errorf("leaked connections: %d", n)
	}
	leaked := int64(0)
	for _, sem := range s.Router().Sems() {
		leaked += sem.OutstandingHolds()
		if err := sem.CheckQuiesced(); err != nil {
			t.Errorf("quiesce: %v", err)
		}
	}
	if leaked != 0 {
		t.Errorf("leaked holds: %d", leaked)
	}
	if n := core.WaitersOutstanding(); n != 0 {
		t.Errorf("leaked waiters: %d", n)
	}
}

// TestServerEndToEnd: the full request vocabulary over a real socket —
// membership answers and delivered-frame accounting must match what the
// in-process router would produce.
func TestServerEndToEnd(t *testing.T) {
	s := startServer(t, Config{})
	defer s.Shutdown(5 * time.Second)

	c := dial(t, s.Addr().String())
	defer c.close()

	c.send(frame(wire.AppendRegister(nil, "g0", "m0")))
	if r := c.recv(); r.Kind != wire.KindOK {
		t.Fatalf("register: %+v", r)
	}
	c.send(frame(wire.AppendRegister(nil, "g0", "m1")))
	if r := c.recv(); r.Kind != wire.KindOK {
		t.Fatalf("register: %+v", r)
	}

	c.send(frame(wire.AppendLookup(nil, "g0", "m0")))
	if r := c.recv(); r.Kind != wire.KindBool || !r.Bool {
		t.Fatalf("lookup registered member: %+v", r)
	}
	c.send(frame(wire.AppendLookup(nil, "g0", "absent")))
	if r := c.recv(); r.Kind != wire.KindBool || r.Bool {
		t.Fatalf("lookup absent member: %+v", r)
	}
	c.send(frame(wire.AppendLookup(nil, "nogroup", "m0")))
	if r := c.recv(); r.Kind != wire.KindBool || r.Bool {
		t.Fatalf("lookup absent group: %+v", r)
	}

	c.send(frame(wire.AppendUnicast(nil, "g0", "m0", []byte("hello"))))
	if r := c.recv(); r.Kind != wire.KindOK {
		t.Fatalf("unicast: %+v", r)
	}
	c.send(frame(wire.AppendMulticast(nil, "g0", []byte("all"))))
	if r := c.recv(); r.Kind != wire.KindOK {
		t.Fatalf("multicast: %+v", r)
	}

	// m0 got the unicast and the multicast; m1 only the multicast.
	if got := s.Sink("g0", "m0").Frames.Load(); got != 2 {
		t.Errorf("m0 frames = %d, want 2", got)
	}
	if got := s.Sink("g0", "m1").Frames.Load(); got != 1 {
		t.Errorf("m1 frames = %d, want 1", got)
	}

	c.send(frame(wire.AppendUnregister(nil, "g0", "m0")))
	if r := c.recv(); r.Kind != wire.KindOK {
		t.Fatalf("unregister: %+v", r)
	}
	c.send(frame(wire.AppendLookup(nil, "g0", "m0")))
	if r := c.recv(); r.Kind != wire.KindBool || r.Bool {
		t.Fatalf("lookup after unregister: %+v", r)
	}

	c.close()
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	checkNoLeaks(t, s)

	st := s.NetStats()[0]
	if st.Frames["in.total"] != 9 || st.Frames["out.total"] != 9 {
		t.Errorf("frame totals = %d in / %d out, want 9/9", st.Frames["in.total"], st.Frames["out.total"])
	}
}

// TestServerPipelining: a burst of unicasts written in one segment is
// drained as one batch and fused into LockBatch prologues; responses
// come back in request order. A burst one frame over maxBatch is split:
// no fused batch holds more than maxBatch frames.
func TestServerPipelining(t *testing.T) {
	for _, burst := range []int{8, maxBatch + 1} {
		s := startServer(t, Config{})
		c := dial(t, s.Addr().String())
		c.send(frame(wire.AppendRegister(nil, "g", "m")))
		c.recv()

		full := 0 // rounds fused into exactly one batch of min(burst, maxBatch)
		for round := 0; round < 20; round++ {
			b0, f0 := s.Stats.Batches.Load(), s.Stats.Batched.Load()
			var frames [][]byte
			for i := 0; i < burst; i++ {
				frames = append(frames, frame(wire.AppendUnicast(nil, "g", "m", []byte("p"))))
			}
			// One lookup at the tail: the response order pin — OKs for
			// every unicast, then exactly one Bool.
			frames = append(frames, frame(wire.AppendLookup(nil, "g", "m")))
			c.send(frames...)
			for i := 0; i < burst; i++ {
				if r := c.recv(); r.Kind != wire.KindOK {
					t.Fatalf("burst %d round %d resp %d: %+v", burst, round, i, r)
				}
			}
			if r := c.recv(); r.Kind != wire.KindBool || !r.Bool {
				t.Fatalf("burst %d round %d tail lookup: %+v", burst, round, r)
			}
			// A batch over the cap could only be the whole burst, alone.
			b, f := s.Stats.Batches.Load()-b0, s.Stats.Batched.Load()-f0
			if b == 1 && f > maxBatch {
				t.Fatalf("burst %d round %d: one fused batch of %d frames, cap %d", burst, round, f, maxBatch)
			}
			if b == 1 && f == uint64(min(burst, maxBatch)) {
				full++
			}
		}

		if got := s.Sink("g", "m").Frames.Load(); got != int64(20*burst) {
			t.Errorf("burst %d: delivered frames = %d, want %d", burst, got, 20*burst)
		}
		// Single-segment bursts arrive whole on loopback; require one
		// round to have fused a full batch.
		if full == 0 {
			t.Errorf("burst %d: no round fused a batch of %d frames", burst, min(burst, maxBatch))
		}
		if b, f := s.Stats.Batches.Load(), s.Stats.Batched.Load(); f < 2*b {
			t.Errorf("burst %d: batched frames %d < 2×batches %d", burst, f, b)
		}
		c.close()
		s.Shutdown(5 * time.Second)
	}
}

// TestServerSplitFrames: requests parsed in place survive the read
// buffer being refilled, compacted and outgrown — a pipelined burst
// arrives a few bytes per segment, with a multicast four times the
// connection's initial buffer in the middle, and every reply still
// comes back in order with every frame delivered.
func TestServerSplitFrames(t *testing.T) {
	s := startServer(t, Config{})
	defer s.Shutdown(5 * time.Second)
	c := dial(t, s.Addr().String())
	defer c.close()
	c.send(frame(wire.AppendRegister(nil, "g", "m")))
	c.recv()

	big := make([]byte, 4*readBufSize)
	var stream []byte
	for i := 0; i < 6; i++ {
		stream = append(stream, frame(wire.AppendUnicast(nil, "g", "m", []byte("split")))...)
	}
	stream = append(stream, frame(wire.AppendMulticast(nil, "g", big))...)
	stream = append(stream, frame(wire.AppendLookup(nil, "g", "m"))...)
	for len(stream) > 0 {
		n := min(len(stream), 7)
		c.send(stream[:n])
		stream = stream[n:]
	}
	for i := 0; i < 7; i++ {
		if r := c.recv(); r.Kind != wire.KindOK {
			t.Fatalf("reply %d: %+v", i, r)
		}
	}
	if r := c.recv(); r.Kind != wire.KindBool || !r.Bool {
		t.Fatalf("tail lookup: %+v", r)
	}
	if got := s.Sink("g", "m").Frames.Load(); got != 7 {
		t.Errorf("delivered frames = %d, want 7", got)
	}
}

// TestServerMalformed: garbage and oversized frames get one
// CodeMalformed error frame and a closed connection — never a panic,
// never a desynced stream. The server survives to serve a new client.
func TestServerMalformed(t *testing.T) {
	s := startServer(t, Config{})
	defer s.Shutdown(5 * time.Second)

	// Unknown kind.
	c := dial(t, s.Addr().String())
	c.send(wire.AppendFrame(nil, []byte{0x7f, 1, 'g'}))
	if r, ok := c.recvErr(); !ok || r.Kind != wire.KindErr || r.Code != wire.CodeMalformed {
		t.Fatalf("unknown kind: %+v ok=%v", r, ok)
	}
	if _, err := c.fr.Next(); err != io.EOF {
		t.Fatalf("connection not closed after malformed frame: %v", err)
	}
	c.close()

	// Oversized length prefixes, the largest and one byte over maxFrame:
	// rejected from the prefix alone, before any body is read (none is
	// sent), and the connection closed.
	for _, n := range []uint32{0xffffffff, maxFrame + 1} {
		c = dial(t, s.Addr().String())
		c.nc.SetReadDeadline(time.Now().Add(5 * time.Second)) // a server waiting for the body fails, not hangs
		c.send(binary.BigEndian.AppendUint32(nil, n))
		if r, ok := c.recvErr(); !ok || r.Kind != wire.KindErr || r.Code != wire.CodeMalformed {
			t.Fatalf("oversized frame %#x: %+v ok=%v", n, r, ok)
		}
		if _, err := c.fr.Next(); err != io.EOF {
			t.Fatalf("connection not closed after oversized prefix %#x: %v", n, err)
		}
		c.close()
	}

	// Trailing garbage on a fixed-shape request, pipelined after a good
	// one: the good prefix is answered first.
	c = dial(t, s.Addr().String())
	bad := wire.AppendFrame(nil, []byte{byte(wire.KindLookup), 1, 'g', 1, 'm', 'x'})
	c.send(frame(wire.AppendRegister(nil, "g", "m")), bad)
	if r := c.recv(); r.Kind != wire.KindOK {
		t.Fatalf("good prefix not answered: %+v", r)
	}
	if r, ok := c.recvErr(); !ok || r.Kind != wire.KindErr || r.Code != wire.CodeMalformed {
		t.Fatalf("trailing garbage: %+v ok=%v", r, ok)
	}
	c.close()

	if got := s.Stats.Decode.Load(); got != 4 {
		t.Errorf("decode errors = %d, want 4", got)
	}

	// A fresh client is unaffected, and a body of exactly maxFrame bytes
	// (kind, group length, group, payload) is served.
	c = dial(t, s.Addr().String())
	defer c.close()
	c.send(frame(wire.AppendMulticast(nil, "g", make([]byte, maxFrame-3))))
	if r := c.recv(); r.Kind != wire.KindOK {
		t.Fatalf("body of exactly maxFrame bytes: %+v", r)
	}
	c.send(frame(wire.AppendLookup(nil, "g", "m")))
	if r := c.recv(); r.Kind != wire.KindBool || !r.Bool {
		t.Fatalf("server did not survive malformed clients: %+v", r)
	}
}

// TestServerShedChaos: a chaos hook holds a unicast section open while
// a second client's conflicting unregister stalls past the policy's
// patience. That stall, returned by the policy's own section, trips its
// breaker, so the second client's next requests are refused with
// wire-level CodeBreakerOpen frames BEFORE any lock is touched, and the
// refused connection serves normally once the hold clears and a probe
// closes the breaker.
func TestServerShedChaos(t *testing.T) {
	policy := resilience.New("net-test", resilience.Config{
		Patience: 500 * time.Microsecond,
		Breaker:  &resilience.BreakerConfig{TripStallRate: 1, Cooldown: 200 * time.Millisecond, Probes: 1},
	})
	s := startServer(t, Config{Policy: policy})
	defer s.Shutdown(5 * time.Second)

	var trap atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	s.Router().FaultHook = func(site string) {
		if site == "unicast" && trap.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}

	a := dial(t, s.Addr().String())
	defer a.close()
	b := dial(t, s.Addr().String())
	defer b.close()

	a.send(frame(wire.AppendRegister(nil, "g", "m")))
	if r := a.recv(); r.Kind != wire.KindOK {
		t.Fatalf("register: %+v", r)
	}

	// Client A's unicast enters its section and parks on the chaos hook,
	// holding its mode on member m.
	trap.Store(true)
	a.send(frame(wire.AppendUnicast(nil, "g", "m", []byte("slow"))))
	<-entered

	// Client B's unregister of m conflicts with that mode and stalls.
	b.send(frame(wire.AppendUnregister(nil, "g", "m")))
	if r := b.recv(); r.Kind != wire.KindErr || r.Code != wire.CodeStall {
		t.Fatalf("conflicting unregister: %+v, want a stall error frame", r)
	}
	if st := policy.Breaker().State(); st != resilience.BreakerOpen {
		t.Fatalf("breaker %v after the stall, want open", st)
	}

	// The open breaker refuses B's lookups as error frames, and B's
	// connection stays up.
	const n = 10
	for i := 0; i < n; i++ {
		b.send(frame(wire.AppendLookup(nil, "g", "m")))
		if r := b.recv(); r.Kind != wire.KindErr || r.Code != wire.CodeBreakerOpen {
			t.Fatalf("request %d: %+v, want a breaker-open error frame", i, r)
		}
	}

	close(release)
	if r := a.recv(); r.Kind != wire.KindOK {
		t.Fatalf("slow unicast after release: %+v", r)
	}
	// The refused connection serves normally once the cooldown ends and
	// its first request, the probe, succeeds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.send(frame(wire.AppendLookup(nil, "g", "m")))
		r := b.recv()
		if r.Kind == wire.KindBool && r.Bool {
			break
		}
		if r.Kind != wire.KindErr || r.Code != wire.CodeBreakerOpen || time.Now().After(deadline) {
			t.Fatalf("connection dead after refusals: %+v", r)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := policy.Breaker().State(); st != resilience.BreakerClosed {
		t.Fatalf("breaker %v after a successful probe, want closed", st)
	}
	if got := s.Stats.Shed.Load(); got < n {
		t.Errorf("shed counter = %d, observed %d refusal frames", got, n)
	}
}

// TestServerDrain: shutdown under live load from many connections. The
// drain must complete inside the deadline and leave zero connections,
// zero outstanding holds, zero parked waiters — the -race run of this
// test is the ISSUE's graceful-drain acceptance gate.
func TestServerDrain(t *testing.T) {
	s := startServer(t, Config{})

	const clients = 8
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				return
			}
			defer nc.Close()
			fr := wire.NewReader(nc, 64, 0)
			reg, _ := wire.AppendRegister(nil, "g", string(rune('a'+w)))
			uni, _ := wire.AppendUnicast(nil, "g", string(rune('a'+w)), []byte("x"))
			look, _ := wire.AppendLookup(nil, "g", string(rune('a'+w)))
			if _, err := nc.Write(reg); err != nil {
				return
			}
			for {
				body, err := fr.Next()
				if err != nil {
					return // server closed us mid-drain: expected
				}
				if _, err := wire.ParseResp(body); err != nil {
					return
				}
				var out []byte
				out = append(out, uni...)
				out = append(out, uni...)
				out = append(out, look...)
				if _, err := nc.Write(out); err != nil {
					return
				}
				// Drain the two extra responses of the burst.
				for i := 0; i < 2; i++ {
					if _, err := fr.Next(); err != nil {
						return
					}
				}
			}
		}(w)
	}

	time.Sleep(30 * time.Millisecond) // let traffic build
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	wg.Wait()
	checkNoLeaks(t, s)
}
