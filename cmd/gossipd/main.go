// Command gossipd runs the GossipRouter reproduction (§6.2) under the
// MPerf workload and reports routing throughput per synchronization
// policy — the runnable form of the Fig 25 experiment.
//
// On SIGINT or SIGTERM the daemon shuts down gracefully: the workers
// stop accepting new messages, routes already inside an atomic section
// drain (bounded by a deadline), and the lock instances are audited for
// leaked holder counts before exit.
//
// With -debug-addr the daemon serves live observability over HTTP while
// the workload runs:
//
//	/debug/vars     expvar JSON, including the "semlock" variable — the
//	                telemetry snapshot of every registered lock group
//	/debug/semlock  the same snapshot alone, indented
//	/debug/pprof/   the standard pprof index (profile, trace, symbol, ...)
//
// Serving the debug endpoints also turns on wait timing
// (core.SetWaitTiming), so snapshots include cumulative blocked time.
//
// Usage:
//
//	gossipd                          # paper workload, all policies
//	gossipd -clients 8 -messages 1000 -workers 4
//	gossipd -policy ours
//	gossipd -policy ours -debug-addr localhost:6060
//	gossipd -policy ours -resilience                  # policied router
//	gossipd -policy ours -resilience -patience 300us
//	gossipd -listen :7946                             # serve the wire protocol
//	gossipd -listen :7946 -resilience -debug-addr localhost:6060
//
// An unknown -policy exits 2 naming the valid ones.
//
// -listen switches gossipd from the self-contained MPerf workload to a
// network daemon: the ours router served over the TCP wire protocol of
// internal/net/wire (drive it with gossipload -addr). SIGINT/SIGTERM
// drains exactly like the workload mode — stop accepting, finish
// in-flight sections, flush responses, audit for leaked connections and
// holds. With -debug-addr, /debug/semlock additionally carries the
// per-connection and per-frame-type counters ("net" rows); with
// -resilience, requests run breaker-checked and refusals go back to
// clients as wire-level error frames.
//
// -resilience wraps the ours router in the resilience layer: every
// route becomes a bounded-patience section behind a circuit breaker,
// and dropped messages are counted instead of wedging a worker. With
// -debug-addr, /debug/semlock additionally reports the live policy
// state (breaker state, run and stall counts) alongside the lock-group
// snapshot.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps/gossip"
	"repro/internal/core"
	"repro/internal/modules/plan"
	"repro/internal/net/server"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// drainDeadline bounds how long shutdown waits for in-flight routes.
const drainDeadline = 5 * time.Second

func main() {
	clients := flag.Int("clients", 16, "MPerf clients (paper: 16)")
	messages := flag.Int("messages", 5000, "messages per client (paper: 5000)")
	unicast := flag.Int("unicast", 10, "percent unicast messages")
	sendCost := flag.Int("sendcost", 60, "synthetic per-frame I/O cost")
	workers := flag.Int("workers", 4, "router worker count (the paper's active cores)")
	policy := flag.String("policy", "", "run one policy only ("+strings.Join(gossip.Policies(), "|")+")")
	debugAddr := flag.String("debug-addr", "", "serve expvar/pprof/telemetry on this address (e.g. localhost:6060)")
	resil := flag.Bool("resilience", false, "wrap the ours router in the resilience layer (bounded patience, breaker)")
	patience := flag.Duration("patience", 500*time.Microsecond, "with -resilience: per-acquisition patience bound")
	listen := flag.String("listen", "", "serve the wire protocol on this TCP address (e.g. :7946) instead of running the MPerf workload")
	flag.Parse()

	if *policy != "" && !slices.Contains(gossip.Policies(), *policy) {
		fmt.Fprintf(os.Stderr, "gossipd: unknown policy %q (valid: %s)\n", *policy, strings.Join(gossip.Policies(), ", "))
		os.Exit(2)
	}

	if *debugAddr != "" {
		// Blocked acquisitions always stamp their park time; summing
		// the waits into the snapshots costs one more clock read per
		// blocked acquisition and is off by default. A debug listener
		// means an operator wants the full picture.
		core.SetWaitTiming(true)
		telemetry.Default.Publish()
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", expvar.Handler())
		mux.Handle("/debug/semlock", telemetry.Default.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "gossipd: debug listener: %v\n", err)
			}
		}()
		fmt.Printf("gossipd: debug endpoints on http://%s/debug/{vars,semlock,pprof/}\n", *debugAddr)
	}

	if *listen != "" {
		serveListen(*listen, *sendCost, *resil, *debugAddr != "", *patience)
		return
	}

	cfg := gossip.MPerfConfig{
		Clients: *clients, Messages: *messages,
		UnicastRatio: *unicast, SendCost: *sendCost, Workers: *workers,
	}
	want := gossip.Policies()
	if *policy != "" {
		want = []string{*policy}
	}
	expected := gossip.ExpectedFrames(cfg)
	fmt.Printf("MPerf: %d clients × %d messages (%d%% unicast), %d workers, expecting %d frames\n",
		cfg.Clients, cfg.Messages, cfg.UnicastRatio, cfg.Workers, expected)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	interrupted, mismatched := false, false
	for _, pol := range want {
		r := gossip.New(pol, cfg.SendCost, plan.Options{})
		if *debugAddr != "" {
			if o, ok := r.(*gossip.Ours); ok {
				// Live provider: each scrape re-walks the group table, so
				// new groups appear in later snapshots. MPerf creates its
				// one group in the first moments of the run and only routes
				// after that; a scrape racing that initial burst may see a
				// partial member list (Sems is documented as introspection,
				// not a synchronized view), never a torn counter — the
				// counters themselves are atomics.
				telemetry.Default.RegisterProvider(pol, "Map", o.Sems)
			}
		}
		var wrapped *gossip.Resilient
		if *resil {
			if o, ok := r.(*gossip.Ours); ok {
				wrapped = gossip.NewResilient(o, newPolicy("gossipd", *patience, *debugAddr != ""))
				r = wrapped
			} else {
				fmt.Fprintf(os.Stderr, "gossipd: -resilience applies to the ours policy only; running %s unwrapped\n", pol)
			}
		}
		stop := make(chan struct{})
		done := make(chan gossip.MPerfResult, 1)
		start := time.Now()
		go func() { done <- gossip.RunMPerfUntil(r, cfg, stop) }()

		var res gossip.MPerfResult
		select {
		case res = <-done:
		case s := <-sigc:
			interrupted = true
			fmt.Printf("gossipd: %v: stopped accepting messages, draining in-flight routes (deadline %v)\n",
				s, drainDeadline)
			close(stop)
			select {
			case res = <-done:
			case <-time.After(drainDeadline):
				fmt.Fprintf(os.Stderr, "gossipd: drain deadline exceeded with routes still in flight\n")
				os.Exit(1)
			}
		}
		elapsed := time.Since(start)

		dropped := uint64(0)
		if wrapped != nil {
			dropped = wrapped.Dropped.Load()
		}
		status := "OK"
		switch {
		case interrupted:
			status = "INTERRUPTED"
		case res.FramesDelivered != expected && dropped == 0:
			status = "FRAME MISMATCH"
		case res.FramesDelivered > expected:
			// Dropping only ever removes frames; extras are a real bug.
			status = "FRAME MISMATCH"
		case dropped > 0:
			// A policied run under overload delivers fewer frames by
			// design; the drops are accounted, not lost.
			status = "OK (degraded)"
		}
		mismatched = mismatched || status == "FRAME MISMATCH"
		fmt.Printf("%-8s routed %6d msgs, delivered %7d frames in %8v (%7.0f msgs/s)  [%s]\n",
			pol, res.Handled, res.FramesDelivered, elapsed.Round(time.Millisecond),
			float64(res.Handled)/elapsed.Seconds(), status)
		if wrapped != nil {
			fmt.Printf("%-8s resilience: %d message(s) dropped under policy; see /debug/semlock policy state for breaker detail\n",
				pol, dropped)
		}

		if interrupted {
			// Audit the lock state before exiting: after a clean drain
			// every holder count must be back to zero.
			if wrapped != nil {
				r = wrapped.Ours // audit the underlying lock instances
			}
			if o, ok := r.(*gossip.Ours); ok {
				leaked := int64(0)
				for _, s := range o.Sems() {
					leaked += s.OutstandingHolds()
				}
				fmt.Printf("gossipd: drained cleanly, leaked locks: %d\n", leaked)
				if leaked != 0 {
					os.Exit(1)
				}
			} else {
				fmt.Printf("gossipd: drained cleanly (policy %s has no lock audit)\n", pol)
			}
			break
		}
	}
	if mismatched {
		fmt.Fprintf(os.Stderr, "gossipd: a policy delivered the wrong number of frames\n")
		os.Exit(1)
	}
}

// newPolicy builds the -resilience policy: the given patience and a
// breaker tripping at 1000 stalls/s of its own sections. Its state is
// registered with the Default telemetry registry only when debug
// endpoints are served: policy state is only worth publishing where an
// operator can scrape it.
func newPolicy(name string, patience time.Duration, debug bool) *resilience.Policy {
	rp := resilience.New(name, resilience.Config{
		Patience: patience,
		Breaker:  &resilience.BreakerConfig{TripStallRate: 1000, Cooldown: time.Millisecond, Probes: 3},
	})
	if debug {
		telemetry.Default.RegisterPolicySource(rp.Stats)
	}
	return rp
}

// serveListen is the -listen daemon mode: the ours router behind the
// TCP wire protocol, with the same drain discipline and leak audit as
// the workload mode.
func serveListen(addr string, sendCost int, resil, debug bool, patience time.Duration) {
	waiters0 := core.WaitersOutstanding()
	cfg := server.Config{Addr: addr, SendCost: sendCost}
	if resil {
		cfg.Policy = newPolicy("gossipd-net", patience, debug)
	}
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gossipd: listen: %v\n", err)
		os.Exit(1)
	}
	if debug {
		telemetry.Default.RegisterProvider("gossipd-net", "Map", s.Router().Sems)
		telemetry.Default.RegisterNetSource(s.NetStats)
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Serve() }()
	fmt.Printf("gossipd: serving the wire protocol on %s (resilience %v)\n", s.Addr(), resil)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "gossipd: accept loop: %v\n", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Printf("gossipd: %v: stopped accepting, draining %d connection(s) (deadline %v)\n",
			sig, s.ActiveConns(), drainDeadline)
	}
	if err := s.Shutdown(drainDeadline); err != nil {
		fmt.Fprintf(os.Stderr, "gossipd: %v\n", err)
		os.Exit(1)
	}

	leaked := int64(0)
	for _, sem := range s.Router().Sems() {
		leaked += sem.OutstandingHolds()
	}
	leakedWaiters := core.WaitersOutstanding() - waiters0
	st := s.NetStats()[0]
	fmt.Printf("gossipd: drained cleanly — %d conns served, %d frames in / %d out, leaked conns: %d, leaked locks: %d, leaked waiters: %d\n",
		st.Conns["accepted"], st.Frames["in.total"], st.Frames["out.total"],
		s.ActiveConns(), leaked, leakedWaiters)
	if s.ActiveConns() != 0 || leaked != 0 || leakedWaiters != 0 {
		os.Exit(1)
	}
}
