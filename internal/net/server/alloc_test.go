package server

import (
	"testing"
	"time"

	"repro/internal/net/wire"
	"repro/internal/resilience"
)

// TestServerFramePathAllocs is the tentpole's 0 allocs/op pin: the
// steady-state decode→handle→encode path, run through the Exerciser
// (the identical code a connection's goroutine executes, minus the
// socket syscalls, which allocate nothing either). Registration is membership
// churn and exempt; lookup, unicast, and the fused batch path must be
// allocation-free once the connection's buffers and intern table are
// warm.
func TestServerFramePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation heap-allocates stack closures; the 0 allocs/op pin holds on the normal build")
	}
	s, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)

	e := s.Exerciser()
	body := func(f []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return f[wire.HeaderLen:] // Append* emit header+body; Handle takes the body
	}
	reg := body(wire.AppendRegister(nil, "g", "m"))
	look := body(wire.AppendLookup(nil, "g", "m"))
	uni := body(wire.AppendUnicast(nil, "g", "m", []byte("payload")))

	resp := make([]byte, 0, 1<<10)
	if resp, err = e.Handle(reg, resp); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(2000, func() {
		resp, _ = e.Handle(look, resp[:0])
	}); n != 0 {
		t.Errorf("lookup frame path allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() {
		resp, _ = e.Handle(uni, resp[:0])
	}); n != 0 {
		t.Errorf("unicast frame path allocs/op = %v, want 0", n)
	}

	// The fused pipeline path: a batch of adjacent unicasts through
	// HandleBatch (parse → intern → UnicastBatchV → encode).
	batch := [][]byte{uni, uni, uni, uni, uni, uni, uni, uni}
	if resp, err = e.HandleBatch(batch, resp[:0]); err != nil {
		t.Fatal(err) // warm the LockBatch scratch
	}
	if n := testing.AllocsPerRun(2000, func() {
		resp, _ = e.HandleBatch(batch, resp[:0])
	}); n != 0 {
		t.Errorf("batched unicast frame path allocs/op = %v, want 0", n)
	}

	// The same frames on a server under a policy (breaker and patience):
	// admission and the bounded acquisitions allocate nothing either.
	ps, err := New(Config{Addr: "127.0.0.1:0", Policy: resilience.New("alloc", resilience.DefaultConfig())})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Shutdown(time.Second)
	pe := ps.Exerciser()
	if resp, err = pe.Handle(reg, resp[:0]); err != nil {
		t.Fatal(err)
	}
	if resp, err = pe.HandleBatch(batch, resp[:0]); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"lookup", func() { resp, _ = pe.Handle(look, resp[:0]) }},
		{"unicast", func() { resp, _ = pe.Handle(uni, resp[:0]) }},
		{"batched unicast", func() { resp, _ = pe.HandleBatch(batch, resp[:0]) }},
	} {
		if n := testing.AllocsPerRun(2000, c.run); n != 0 {
			t.Errorf("policied %s frame path allocs/op = %v, want 0", c.name, n)
		}
	}
	if got := ps.Stats.Errors.Load(); got != 0 {
		t.Errorf("policied server answered %d error frames, want 0", got)
	}
}
