package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/net/server"
)

// kind is an operation kind a workload can issue; per-kind latencies are
// reported under kindNames.
type kind uint8

const (
	kUnicast kind = iota
	kMulticast
	kLookup
	kRegister
	kUnregister
	kGet
	kPut
	kPutPair
	kScan
	numKinds
)

var kindNames = [numKinds]string{
	"unicast", "multicast", "lookup", "register", "unregister",
	"get", "put", "putpair", "scan",
}

// stepFunc runs one worker's next iteration, drawing its inputs from in.
// k indexes the workload's kinds; done operations completed with the
// right answer and failed ones did not (refused, errored, or wrong).
type stepFunc func(in *rng) (k, done, failed int)

// instance is one epoch's fresh state: everything a workload builds,
// preloads and dials before its workers start.
type instance interface {
	// worker returns worker w's iteration; it is called once per worker,
	// from the goroutine that will run it.
	worker(w int) stepFunc
	// sems lists the live semantic locks; call it only while no worker
	// is inside an iteration.
	sems() []*core.Semantic
	// server is the TCP server under test, nil for in-process workloads.
	server() *server.Server
	// close checks the epoch's oracles and tears the state down.
	close() error
}

// workload is one closed-loop traffic mix. warmup is a fixed count so
// that work moved into construction, preload or first use shows up in
// setup_s; it is never calibrated at run time.
type workload struct {
	name   string
	kinds  []kind
	warmup int // iterations per worker before the first window
	stride int // one iteration in stride is timed; a power of two (1 = all of them)
	build  func(c int) (instance, error)
}

// runConfig shapes a run: epochs of fresh state, each with a fixed-count
// warm-up and then contiguous windows.
type runConfig struct {
	seed      uint64
	clients   int
	epochs    int
	windows   int
	window    time.Duration
	warmScale float64 // multiplies workload.warmup; 1 except in the smoke test
	// traced says whether window i (from 0) runs with the lock
	// mechanism's wait timing on; nil means none does. A traced run
	// alternates, so both kinds of window see the same state.
	traced func(i int) bool
}

// slot is where one worker tallies one window; slot 0 of a worker is its
// warm-up, whose histogram stays empty.
type slot struct {
	ops    uint64
	failed uint64
	hist   Hist // every timed operation of the window, all kinds
}

// windowResult is one measured window, workers merged.
type windowResult struct {
	dur      time.Duration
	traced   bool
	total    uint64
	failed   uint64
	cpu, sys time.Duration // user+sys and sys alone, of the whole process, load generator included
	p50, p99 float64       // ns, over every timed operation of the window
}

func (w *windowResult) opsPerSec() float64 { return float64(w.total) / w.dur.Seconds() }
func (w *windowResult) cpuPerOp() float64 {
	return float64(w.cpu.Microseconds()) / float64(w.total)
}

type epochResult struct {
	setup      time.Duration
	heapMB     float64 // live heap the epoch's state added, see run.epoch
	warmOps    uint64
	warmFailed uint64
	windows    []windowResult
	delta      counters // after − before, over the windows only
}

// run is one process's measurement of one workload. The tally slots and
// the per-kind latency histograms are allocated once, before the first
// epoch, so none of the benchmark's own memory counts as an epoch's live
// heap.
type run struct {
	wl     *workload
	cfg    runConfig
	slots  [][]slot // [worker][0 = warm-up, 1.. = windows], cleared every epoch
	kinds  [][]Hist // [worker][workload kind index], every window of the run
	epochs []epochResult
}

func newRun(wl *workload, cfg runConfig) *run {
	r := &run{wl: wl, cfg: cfg}
	r.slots = make([][]slot, cfg.clients)
	r.kinds = make([][]Hist, cfg.clients)
	for w := range r.slots {
		r.slots[w] = make([]slot, cfg.windows+1)
		r.kinds[w] = make([]Hist, len(wl.kinds))
	}
	return r
}

// lat merges the workers' histograms of workload kind k.
func (r *run) lat(k int) *Hist {
	var h Hist
	for w := range r.kinds {
		h.Merge(&r.kinds[w][k])
	}
	return &h
}

// all runs every epoch of the configuration.
func (r *run) all() error {
	for i := 0; i < r.cfg.epochs; i++ {
		if err := r.epoch(i); err != nil {
			return err
		}
	}
	return nil
}

// rusage returns the process's cumulative user and system CPU time.
func rusage() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// epoch builds fresh state, warms it with the fixed count, measures
// cfg.windows contiguous windows with the workers running straight
// through the boundaries, checks the oracles and appends the result.
func (r *run) epoch(epoch int) error {
	wl, cfg, slots := r.wl, r.cfg, r.slots
	for w := range slots {
		clear(slots[w])
	}
	heap0 := liveHeap()
	waiters0 := core.WaitersOutstanding()
	t0 := time.Now()
	inst, err := wl.build(cfg.clients)
	if err != nil {
		return fmt.Errorf("%s: build: %w", wl.name, err)
	}
	warm := int(float64(wl.warmup) * cfg.warmScale)

	// cur is the slot workers tally into: 1..windows while measuring,
	// -1 to stop.
	var cur atomic.Int32
	var warmed, done sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < cfg.clients; w++ {
		warmed.Add(1)
		done.Add(1)
		go func(w int) {
			defer done.Done()
			in := newRNG(cfg.seed, epoch, w)
			step := inst.worker(w)
			s, kinds := &slots[w][0], r.kinds[w]
			for i := 0; i < warm; i++ {
				_, n, f := step(in)
				s.ops += uint64(n)
				s.failed += uint64(f)
			}
			warmed.Done()
			<-start
			mask := wl.stride - 1
			for i := 0; ; i++ {
				c := cur.Load()
				if c < 0 {
					return
				}
				s := &slots[w][c]
				if i&mask != 0 {
					_, n, f := step(in)
					s.ops += uint64(n)
					s.failed += uint64(f)
					continue
				}
				t := time.Now()
				k, n, f := step(in)
				d := time.Since(t)
				s.ops += uint64(n)
				s.failed += uint64(f)
				s.hist.RecordN(d, n)
				kinds[k].RecordN(d, n)
			}
		}(w)
	}
	warmed.Wait()
	res := epochResult{setup: time.Since(t0)}

	before := snapshot(inst)
	bounds := make([]time.Time, cfg.windows+1)
	cpus := make([]time.Duration, cfg.windows+1)
	syss := make([]time.Duration, cfg.windows+1)
	mark := func(i int) {
		u, s := rusage()
		cpus[i], syss[i] = u+s, s
		bounds[i] = time.Now()
	}
	traced := func(i int) bool { return cfg.traced != nil && i < cfg.windows && cfg.traced(i) }
	core.SetWaitTiming(traced(0))
	cur.Store(1)
	mark(0)
	close(start)
	for i := 1; i <= cfg.windows; i++ {
		time.Sleep(time.Until(bounds[0].Add(time.Duration(i) * cfg.window)))
		core.SetWaitTiming(traced(i))
		if i < cfg.windows {
			cur.Store(int32(i + 1))
		} else {
			cur.Store(-1)
		}
		mark(i)
	}
	done.Wait()
	res.delta = snapshot(inst).sub(before)
	res.heapMB = float64(liveHeap()-heap0) / (1 << 20) // inst is still reachable

	if err := inst.close(); err != nil {
		return fmt.Errorf("%s: epoch %d: %w", wl.name, epoch, err)
	}
	if d := core.WaitersOutstanding() - waiters0; d != 0 {
		return fmt.Errorf("%s: epoch %d: %d waiter(s) leaked", wl.name, epoch, d)
	}

	for w := range slots {
		res.warmOps += slots[w][0].ops
		res.warmFailed += slots[w][0].failed
	}
	res.windows = make([]windowResult, cfg.windows)
	var merged Hist
	for i := range res.windows {
		wr := &res.windows[i]
		wr.dur = bounds[i+1].Sub(bounds[i])
		wr.traced = traced(i)
		wr.cpu, wr.sys = cpus[i+1]-cpus[i], syss[i+1]-syss[i]
		merged = Hist{}
		for w := range slots {
			s := &slots[w][i+1]
			wr.total += s.ops
			wr.failed += s.failed
			merged.Merge(&s.hist)
		}
		wr.p50, wr.p99 = merged.Quantile(0.50), merged.Quantile(0.99)
	}
	r.epochs = append(r.epochs, res)
	return nil
}

// liveHeap is the heap still in use after two full collections: the
// first runs the finalizers of what the previous epoch dropped (every
// connection has one), the second frees it.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// windows flattens the epochs' windows.
func (r *run) windows() []*windowResult {
	var ws []*windowResult
	for i := range r.epochs {
		for j := range r.epochs[i].windows {
			ws = append(ws, &r.epochs[i].windows[j])
		}
	}
	return ws
}

// median of xs; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rng is a per-worker xorshift64* generator: the workers' only source
// of inputs, seeded from --seed, the epoch and the worker index.
type rng struct{ s uint64 }

func newRNG(seed uint64, epoch, worker int) *rng {
	// splitmix64 over the three coordinates, so nearby seeds diverge.
	x := seed + 0x9e3779b97f4a7c15*uint64(1+epoch) + 0xbf58476d1ce4e5b9*uint64(1+worker)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return &rng{s: x}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}
