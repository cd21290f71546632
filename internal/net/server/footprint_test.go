package server

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/net/wire"
)

// maxConnBytes bounds what one served connection may keep alive between
// requests: its goroutine's stack plus every heap object it holds (frame
// reader, reply buffer, batch scratch, intern table, socket), and the
// test's own client socket.
const maxConnBytes = 12 << 10

// TestConnFootprint: a connection costs one goroutine and a few KiB.
// conns clients each complete a lookup round trip, so every connection
// has read, parsed, interned, run a section and written a reply, and
// then they sit idle while the process's goroutines, heap and stacks
// are counted against the same reading taken before they dialed.
func TestConnFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates heap objects and stacks")
	}
	s := startServer(t, Config{})
	defer s.Shutdown(5 * time.Second)
	look := frame(wire.AppendLookup(nil, "g", "m"))
	reply := make([]byte, len(wire.AppendBool(nil, false)))
	roundTrip := func(nc net.Conn) {
		t.Helper()
		if _, err := nc.Write(look); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := io.ReadFull(nc, reply); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	// One connection first, so the router's lazily built group state is
	// not charged to the ones measured.
	warm := dial(t, s.Addr().String())
	defer warm.close()
	warm.send(frame(wire.AppendRegister(nil, "g", "m")))
	warm.recv()
	roundTrip(warm.nc)

	const conns = 256
	before := footprint()
	clients := make([]net.Conn, conns)
	for i := range clients {
		nc, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer nc.Close()
		clients[i] = nc
		roundTrip(nc)
	}
	after := footprint()

	goroutines := after.goroutines - before.goroutines
	bytes := (after.bytes - before.bytes) / conns
	t.Logf("%d connections: %d goroutines, %d bytes each (heap + stacks, both ends)", conns, goroutines, bytes)
	if goroutines < conns-4 || goroutines > conns+4 {
		t.Errorf("%d goroutines for %d connections, want one each", goroutines, conns)
	}
	if bytes > maxConnBytes {
		t.Errorf("%d bytes per connection, want at most %d", bytes, maxConnBytes)
	}
}

type usage struct{ goroutines, bytes int }

func footprint() usage {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{runtime.NumGoroutine(), int(m.HeapAlloc + m.StackInuse)}
}
