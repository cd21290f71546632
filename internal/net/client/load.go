package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// LoadConfig is one closed-loop load cell: Conns workers, each with its
// own connection, issuing a ReadFrac/1-ReadFrac mix of lookups and
// pipelined unicast windows for Duration.
type LoadConfig struct {
	Addr     string
	Conns    int
	Duration time.Duration
	// ReadFrac is the fraction of iterations that are lookups; the rest
	// are unicast windows.
	ReadFrac float64
	// Pipeline is the unicasts per window (default 1; >1 exercises the
	// server's adjacent-unicast batch fusion).
	Pipeline int
	// PayloadBytes sizes the unicast payload (default 64).
	PayloadBytes int
}

const (
	// loadGroups and loadMembers shape the membership universe the
	// setup phase registers; worker w talks to group w mod loadGroups
	// and member w mod loadMembers.
	loadGroups  = 4
	loadMembers = 8
	// warmupOps are per-worker unmeasured iterations before the window
	// opens (buffer growth, interning, TCP slow start). The measurement
	// window opens only after every worker has warmed up, so Duration
	// buys measured operations at any connection count.
	warmupOps = 16
)

// LoadResult aggregates one cell.
type LoadResult struct {
	Conns   int
	Ops     uint64 // completed operations (each unicast in a window counts once)
	Shed    uint64 // operations refused by the server's breaker
	Errors  uint64 // hard failures (I/O, protocol, internal)
	Elapsed time.Duration
	Hist    Hist // per-operation round-trip latency
}

// OpsPerSec is the cell's completed-operation throughput.
func (r *LoadResult) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

func (c *LoadConfig) defaults() {
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 1
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 64
	}
}

// seedMembership registers the loadGroups×loadMembers universe over one
// connection, so a cell (or an external target) has members to hit.
// Registration is idempotent on the server, so repeated cells against
// one server are fine.
func seedMembership(addr string) error {
	c, err := Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	for g := 0; g < loadGroups; g++ {
		for m := 0; m < loadMembers; m++ {
			if err := c.Register(groupName(g), memberName(m)); err != nil {
				return fmt.Errorf("seed register g%d/m%d: %w", g, m, err)
			}
		}
	}
	return nil
}

func groupName(g int) string  { return fmt.Sprintf("g%d", g) }
func memberName(m int) string { return fmt.Sprintf("m%d", m) }

// RunLoad runs one closed-loop cell against a serving address. Every
// worker owns one connection and measures the full round-trip of each
// iteration; sheds count as completed-but-refused (they have latency
// too, but only delivered work enters Ops and the histogram). A worker
// that hits a hard failure stops; the cell reports it in Errors.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	cfg.defaults()
	if err := seedMembership(cfg.Addr); err != nil {
		return nil, err
	}

	// Dial everything before the window opens so slow accept queues
	// don't eat into the measurement.
	conns := make([]*Conn, cfg.Conns)
	for i := range conns {
		c, err := Dial(cfg.Addr)
		if err != nil {
			for _, pc := range conns[:i] {
				pc.Close()
			}
			return nil, fmt.Errorf("dial conn %d: %w", i, err)
		}
		conns[i] = c
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	payload := make([]byte, cfg.PayloadBytes)
	readThreshold := int(cfg.ReadFrac * 1000)
	res := &LoadResult{Conns: cfg.Conns}
	var mu sync.Mutex
	var wg sync.WaitGroup

	// The window opens only after every worker finishes warmup: a clock
	// that starts before warmup would leave slow hosts × many workers
	// with zero measured iterations. `deadline` is written before the
	// close, so workers reading it after <-open are race-free.
	var warm sync.WaitGroup
	open := make(chan struct{})
	var deadline time.Time

	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		warm.Add(1)
		go func(w int, c *Conn) {
			defer wg.Done()
			var h Hist
			var ops, shed, hardErrs uint64
			g := groupName(w % loadGroups)
			m := memberName(w % loadMembers)
			fail := func(err error) bool {
				// Connection teardown at cell end is not a workload error.
				if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
					return true
				}
				hardErrs++
				return true
			}
			// iter runs iteration i, recording it when measure is set, and
			// reports whether the worker can continue.
			iter := func(i int, measure bool) bool {
				t0 := time.Now()
				// Mix by a fixed per-worker stride so every worker honors
				// ReadFrac without shared state.
				if (i*611+w*263)%1000 < readThreshold {
					if _, err := c.Lookup(g, m); err != nil {
						var re *RespError
						if errors.As(err, &re) && re.Shed() {
							shed++
							return true
						}
						return !fail(err)
					}
					if measure {
						h.Record(time.Since(t0))
						ops++
					}
				} else {
					nok, nshed, err := c.UnicastWindow(g, m, payload, cfg.Pipeline)
					shed += uint64(nshed)
					if err != nil {
						var re *RespError
						if !errors.As(err, &re) {
							return !fail(err)
						}
						hardErrs++
						return true
					}
					if measure {
						d := time.Since(t0)
						for j := 0; j < nok; j++ {
							h.Record(d)
						}
						ops += uint64(nok)
					}
				}
				return true
			}

			alive := true
			for i := 0; i < warmupOps && alive; i++ {
				alive = iter(i, false)
			}
			warm.Done()
			if alive {
				<-open
				for i := warmupOps; !time.Now().After(deadline); i++ {
					if !iter(i, true) {
						break
					}
				}
			}
			mu.Lock()
			res.Ops += ops
			res.Shed += shed
			res.Errors += hardErrs
			res.Hist.Merge(&h)
			mu.Unlock()
		}(w, conns[w])
	}
	warm.Wait()
	windowStart := time.Now()
	deadline = windowStart.Add(cfg.Duration)
	close(open)
	wg.Wait()
	res.Elapsed = time.Since(windowStart)
	return res, nil
}
