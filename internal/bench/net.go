package bench

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/net/client"
	"repro/internal/net/server"
	"repro/internal/net/wire"
)

// NetBench is the networked-gossipd experiment behind `benchall -exp
// net`: the router served over TCP by internal/net/server, driven by
// the closed-loop load generator in internal/net/client, swept over
// connection counts × read fractions. Each cell records completed
// ops/s and p50/p95/p99 round-trip latency, plus the server-side shed
// and batching counters; every cell gets a fresh server and must drain
// to zero connections, zero outstanding holds, and zero parked waiters.
//
// Two calibration rows anchor the sweep:
//
//   - the in-process baseline: one goroutine driving the identical
//     decode→handle→encode code through the server's Exerciser (no
//     sockets), at each read fraction. The networked-over-in-process
//     ratio isolates exactly what the wire adds — syscalls, scheduler
//     churn, TCP — because everything else (codec, interning, fused
//     sections, member sinks) is shared code.
//   - the steady-state frame-path allocation count, measured with
//     testing.AllocsPerRun over the same Exerciser paths the alloc
//     tests pin: it must be exactly zero.
type NetConfig struct {
	Duration     time.Duration // per-cell window (default 400ms)
	Conns        []int         // connection sweep (default 64, 256, 1024, 4096)
	ReadFracs    []float64     // lookup fraction sweep (default 0, 0.5, 0.9)
	Pipeline     int           // unicasts per pipelined window (default 8)
	PayloadBytes int           // unicast payload (default 64)
	SendCost     int           // synthetic sink I/O cost (default 0)
}

// NetPoint is one (conns, read fraction) cell.
type NetPoint struct {
	Conns     int     `json:"conns"`
	ReadFrac  float64 `json:"read_frac"`
	Ops       uint64  `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Shed      uint64  `json:"shed_ops"`
	Errors    uint64  `json:"hard_errors"`
	P50us     float64 `json:"p50_us"`
	P95us     float64 `json:"p95_us"`
	P99us     float64 `json:"p99_us"`

	// Server-side accounting for the cell.
	Batches       uint64 `json:"fused_batches"`
	BatchedFrames uint64 `json:"batched_frames"`

	// Drain outcome; all must be zero.
	LeakedConns   int64  `json:"leaked_conns"`
	LeakedLocks   int64  `json:"leaked_locks"`
	LeakedWaiters int64  `json:"leaked_waiters"`
	DrainError    string `json:"drain_error,omitempty"`
	QuiesceError  string `json:"quiesce_error,omitempty"`
}

// NetInproc is one in-process baseline row.
type NetInproc struct {
	ReadFrac  float64 `json:"read_frac"`
	Ops       uint64  `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// NetReport is the content of BENCH_net.json.
type NetReport struct {
	GOMAXPROCS   int         `json:"gomaxprocs"`
	CellSec      float64     `json:"cell_seconds"`
	Pipeline     int         `json:"pipeline"`
	PayloadBytes int         `json:"payload_bytes"`
	Points       []NetPoint  `json:"points"`
	Inproc       []NetInproc `json:"inproc_baseline"`
	// NetOverInproc maps read fraction to (best networked ops/s across
	// the conn sweep) ÷ (in-process ops/s at the same fraction).
	NetOverInproc     map[string]float64 `json:"net_over_inproc_ratio"`
	SteadyFrameAllocs float64            `json:"steady_frame_allocs_per_op"`
	Criteria          map[string]float64 `json:"criteria"`
}

// netReport is BENCH_net.json's schema. A nonzero steady-state
// allocation count or any leaked resource is a regression of the wire
// path's core claims, never a host-speed matter, so those are enforced
// with or without strict; the sweep floor (max_conns_swept) and the
// throughput ratio stay informational so a short smoke cell validates.
var netReport = Report{
	ID: "net", File: "BENCH_net.json",
	Run:    func() (Formatter, error) { return NetBench(NetConfig{}) },
	Fields: []string{"gomaxprocs", "cell_seconds", "points", "inproc_baseline", "net_over_inproc_ratio", "criteria"},
	Criteria: []string{"steady_frame_allocs_per_op", "leaked_conns_total", "leaked_locks_total",
		"leaked_waiters_total", "quiesce_failures", "drain_failures", "max_conns_swept", "net_over_inproc_at_read50"},
	Always: zero("steady_frame_allocs_per_op", "leaked_conns_total", "leaked_locks_total",
		"leaked_waiters_total", "quiesce_failures", "drain_failures"),
}

func (c *NetConfig) defaults() {
	if c.Duration <= 0 {
		c.Duration = 400 * time.Millisecond
	}
	if len(c.Conns) == 0 {
		c.Conns = []int{64, 256, 1024, 4096}
	}
	if len(c.ReadFracs) == 0 {
		c.ReadFracs = []float64{0, 0.5, 0.9}
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 8
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 64
	}
}

// netCell runs one networked cell on a fresh server and audits the
// drain.
func netCell(cfg NetConfig, conns int, readFrac float64) (NetPoint, error) {
	waiters0 := core.WaitersOutstanding()
	s, err := server.New(server.Config{Addr: "127.0.0.1:0", SendCost: cfg.SendCost})
	if err != nil {
		return NetPoint{}, err
	}
	go s.Serve()

	res, err := client.RunLoad(client.LoadConfig{
		Addr:         s.Addr().String(),
		Conns:        conns,
		Duration:     cfg.Duration,
		ReadFrac:     readFrac,
		Pipeline:     cfg.Pipeline,
		PayloadBytes: cfg.PayloadBytes,
	})
	if err != nil {
		s.Shutdown(10 * time.Second)
		return NetPoint{}, err
	}

	pt := NetPoint{
		Conns:         conns,
		ReadFrac:      readFrac,
		Ops:           res.Ops,
		OpsPerSec:     res.OpsPerSec(),
		Shed:          res.Shed,
		Errors:        res.Errors,
		P50us:         float64(res.Hist.Quantile(0.50)) / 1e3,
		P95us:         float64(res.Hist.Quantile(0.95)) / 1e3,
		P99us:         float64(res.Hist.Quantile(0.99)) / 1e3,
		Batches:       s.Stats.Batches.Load(),
		BatchedFrames: s.Stats.Batched.Load(),
	}
	if err := s.Shutdown(10 * time.Second); err != nil {
		pt.DrainError = err.Error()
	}
	pt.LeakedConns = s.ActiveConns()
	pt.LeakedLocks, pt.LeakedWaiters, pt.QuiesceError = drainAudit(s.Router().Sems(), waiters0)
	return pt, nil
}

// netFixture is a fresh server's Exerciser with member m0 registered
// in group g0, and the frame bodies the in-process rows replay: a
// lookup of m0, a unicast to it, and a pipelined batch of those
// unicasts. resp is a reply buffer to reuse.
type netFixture struct {
	s         *server.Server
	e         *server.Exerciser
	look, uni []byte
	batch     [][]byte
	resp      []byte
}

func newNetFixture(cfg NetConfig) (*netFixture, error) {
	reg, err1 := wire.AppendRegister(nil, "g0", "m0")
	look, err2 := wire.AppendLookup(nil, "g0", "m0")
	uni, err3 := wire.AppendUnicast(nil, "g0", "m0", make([]byte, cfg.PayloadBytes))
	if err := errors.Join(err1, err2, err3); err != nil {
		return nil, err
	}
	s, err := server.New(server.Config{Addr: "127.0.0.1:0", SendCost: cfg.SendCost})
	if err != nil {
		return nil, err
	}
	f := &netFixture{s: s, e: s.Exerciser(), look: look[wire.HeaderLen:], uni: uni[wire.HeaderLen:], resp: make([]byte, 0, 4<<10)}
	if f.resp, err = f.e.Handle(reg[wire.HeaderLen:], f.resp); err != nil {
		s.Shutdown(time.Second)
		return nil, err
	}
	f.batch = make([][]byte, cfg.Pipeline)
	for i := range f.batch {
		f.batch[i] = f.uni
	}
	return f, nil
}

// netInprocCell drives the Exerciser — the server's exact frame
// handling, minus sockets — with the same op mix for the same window.
func netInprocCell(cfg NetConfig, readFrac float64) (NetInproc, error) {
	f, err := newNetFixture(cfg)
	if err != nil {
		return NetInproc{}, err
	}
	defer f.s.Shutdown(time.Second)

	readThreshold := int(readFrac * 1000)
	var ops uint64
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for i := 0; ; i++ {
		if i%256 == 0 && time.Now().After(deadline) {
			break
		}
		if (i*611)%1000 < readThreshold {
			if f.resp, err = f.e.Handle(f.look, f.resp[:0]); err != nil {
				return NetInproc{}, err
			}
			ops++
		} else {
			if f.resp, err = f.e.HandleBatch(f.batch, f.resp[:0]); err != nil {
				return NetInproc{}, err
			}
			ops += uint64(cfg.Pipeline)
		}
	}
	elapsed := time.Since(start)
	return NetInproc{ReadFrac: readFrac, Ops: ops, OpsPerSec: float64(ops) / elapsed.Seconds()}, nil
}

// netSteadyAllocs measures the steady-state frame path's allocations
// per operation over the Exerciser: the max across the lookup, single
// unicast, and fused batch paths.
func netSteadyAllocs(cfg NetConfig) (float64, error) {
	f, err := newNetFixture(cfg)
	if err != nil {
		return 0, err
	}
	defer f.s.Shutdown(time.Second)
	e, resp := f.e, f.resp
	if resp, err = e.HandleBatch(f.batch, resp[:0]); err != nil { // warm scratch
		return 0, err
	}
	max := testing.AllocsPerRun(1000, func() { resp, _ = e.Handle(f.look, resp[:0]) })
	if n := testing.AllocsPerRun(1000, func() { resp, _ = e.Handle(f.uni, resp[:0]) }); n > max {
		max = n
	}
	if n := testing.AllocsPerRun(1000, func() { resp, _ = e.HandleBatch(f.batch, resp[:0]) }); n > max {
		max = n / float64(cfg.Pipeline)
	}
	return max, nil
}

// NetBench runs the sweep and computes the criteria.
func NetBench(cfg NetConfig) (*NetReport, error) {
	cfg.defaults()
	rep := &NetReport{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CellSec:       cfg.Duration.Seconds(),
		Pipeline:      cfg.Pipeline,
		PayloadBytes:  cfg.PayloadBytes,
		NetOverInproc: map[string]float64{},
		Criteria:      map[string]float64{},
	}

	allocs, err := netSteadyAllocs(cfg)
	if err != nil {
		return nil, err
	}
	rep.SteadyFrameAllocs = allocs

	for _, frac := range cfg.ReadFracs {
		base, err := netInprocCell(cfg, frac)
		if err != nil {
			return nil, err
		}
		rep.Inproc = append(rep.Inproc, base)

		best := 0.0
		for _, conns := range cfg.Conns {
			pt, err := netCell(cfg, conns, frac)
			if err != nil {
				return nil, err
			}
			rep.Points = append(rep.Points, pt)
			if pt.OpsPerSec > best {
				best = pt.OpsPerSec
			}
		}
		if base.OpsPerSec > 0 {
			rep.NetOverInproc[fmt.Sprintf("read_%02.0f", frac*100)] = best / base.OpsPerSec
		}
	}

	var leakedConns, leakedLocks, leakedWaiters int64
	var quiesceFailures, drainFailures, hardErrors float64
	maxConns := 0
	for _, pt := range rep.Points {
		leakedConns += pt.LeakedConns
		leakedLocks += pt.LeakedLocks
		leakedWaiters += pt.LeakedWaiters
		hardErrors += float64(pt.Errors)
		if pt.QuiesceError != "" {
			quiesceFailures++
		}
		if pt.DrainError != "" {
			drainFailures++
		}
		if pt.Conns > maxConns {
			maxConns = pt.Conns
		}
	}
	// steady_frame_allocs_per_op and the leak criteria are enforced
	// unconditionally by benchcheck; max_conns_swept is the sweep-floor
	// record (informational, so a short CI smoke cell still validates).
	rep.Criteria["steady_frame_allocs_per_op"] = rep.SteadyFrameAllocs
	rep.Criteria["leaked_conns_total"] = float64(leakedConns)
	rep.Criteria["leaked_locks_total"] = float64(leakedLocks)
	rep.Criteria["leaked_waiters_total"] = float64(leakedWaiters)
	rep.Criteria["quiesce_failures"] = quiesceFailures
	rep.Criteria["drain_failures"] = drainFailures
	rep.Criteria["hard_errors_total"] = hardErrors
	rep.Criteria["max_conns_swept"] = float64(maxConns)
	if r, ok := rep.NetOverInproc["read_50"]; ok {
		rep.Criteria["net_over_inproc_at_read50"] = r
	} else {
		// Ensure the criterion exists whatever fractions were swept.
		for _, v := range rep.NetOverInproc {
			rep.Criteria["net_over_inproc_at_read50"] = v
			break
		}
	}
	return rep, nil
}

// Format renders the report as the sweep table.
func (r *NetReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Net — gossipd over TCP, closed-loop sweep, GOMAXPROCS=%d\n", r.GOMAXPROCS)
	fmt.Fprintf(&b, "(%.0fms cells, pipeline depth %d, %dB payloads; latencies are per-op round trips)\n",
		r.CellSec*1000, r.Pipeline, r.PayloadBytes)
	fmt.Fprintf(&b, "%-7s%7s%12s%12s%10s%10s%10s%9s%8s\n",
		"conns", "read%", "ops", "ops/s", "p50(µs)", "p95(µs)", "p99(µs)", "batches", "shed")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-7d%7.0f%12d%12.0f%10.1f%10.1f%10.1f%9d%8d\n",
			p.Conns, p.ReadFrac*100, p.Ops, p.OpsPerSec, p.P50us, p.P95us, p.P99us, p.Batches, p.Shed)
	}
	fmt.Fprintf(&b, "\nin-process baseline (Exerciser, no sockets):\n")
	for _, ip := range r.Inproc {
		fmt.Fprintf(&b, "  read %3.0f%%: %12.0f ops/s\n", ip.ReadFrac*100, ip.OpsPerSec)
	}
	fmt.Fprintf(&b, "\nnetworked ÷ in-process (best cell per read fraction):\n")
	for _, k := range sortedStringKeys(r.NetOverInproc) {
		fmt.Fprintf(&b, "  %s = %.3f\n", k, r.NetOverInproc[k])
	}
	return b.String() + formatCriteria(r.Criteria)
}
