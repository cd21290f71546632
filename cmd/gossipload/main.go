// Command gossipload is the closed-loop load generator for the
// networked gossip router. Self-hosted (no -addr) it runs the full
// benchmark sweep — an in-process server per cell, connection counts ×
// read fractions, p50/p95/p99 latency, the in-process baseline ratio —
// and can write the benchcheck-validated BENCH_net.json. Pointed at a
// live server with -addr it drives that server instead and prints the
// per-cell table (no JSON; an external server's drain cannot be
// audited from here).
//
// Usage:
//
//	gossipload                                   # full sweep, self-hosted
//	gossipload -json BENCH_net.json              # ...writing the artifact
//	gossipload -conns 64,1024 -read 0.5,0.9      # narrower sweep
//	gossipload -addr 127.0.0.1:7946 -conns 256   # drive a live gossipd -listen
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/net/client"
)

func main() {
	addr := flag.String("addr", "", "drive a live server at this address instead of self-hosting")
	conns := flag.String("conns", "64,256,1024,4096", "comma-separated connection sweep")
	reads := flag.String("read", "0,0.5,0.9", "comma-separated lookup fractions")
	dur := flag.Duration("dur", 400*time.Millisecond, "per-cell measurement window")
	pipeline := flag.Int("pipeline", 8, "unicasts per pipelined window")
	payload := flag.Int("payload", 64, "unicast payload bytes")
	jsonPath := flag.String("json", "", "write the report as JSON to this path (self-hosted only)")
	flag.Parse()

	connList, err := parseInts(*conns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gossipload: -conns: %v\n", err)
		os.Exit(2)
	}
	readList, err := parseFloats(*reads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gossipload: -read: %v\n", err)
		os.Exit(2)
	}

	if *addr != "" {
		if *jsonPath != "" {
			fmt.Fprintln(os.Stderr, "gossipload: -json requires self-hosted mode (no -addr)")
			os.Exit(2)
		}
		driveExternal(*addr, connList, readList, *dur, *pipeline, *payload)
		return
	}

	rep, err := bench.NetBench(bench.NetConfig{
		Duration:     *dur,
		Conns:        connList,
		ReadFracs:    readList,
		Pipeline:     *pipeline,
		PayloadBytes: *payload,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gossipload: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(rep.Format())
	if *jsonPath != "" {
		if err := bench.WriteReport(*jsonPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "gossipload: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// driveExternal sweeps the cells against a live server.
func driveExternal(addr string, conns []int, reads []float64, dur time.Duration, pipeline, payload int) {
	fmt.Printf("gossipload — driving %s (%v cells, pipeline %d, %dB payloads)\n", addr, dur, pipeline, payload)
	fmt.Printf("%-7s%7s%12s%12s%10s%10s%10s%8s%8s\n",
		"conns", "read%", "ops", "ops/s", "p50(µs)", "p95(µs)", "p99(µs)", "shed", "errors")
	for _, frac := range reads {
		for _, n := range conns {
			res, err := client.RunLoad(client.LoadConfig{
				Addr:         addr,
				Conns:        n,
				Duration:     dur,
				ReadFrac:     frac,
				Pipeline:     pipeline,
				PayloadBytes: payload,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "gossipload: cell conns=%d read=%.2f: %v\n", n, frac, err)
				os.Exit(1)
			}
			fmt.Printf("%-7d%7.0f%12d%12.0f%10.1f%10.1f%10.1f%8d%8d\n",
				n, frac*100, res.Ops, res.OpsPerSec(),
				float64(res.Hist.Quantile(0.50))/1e3,
				float64(res.Hist.Quantile(0.95))/1e3,
				float64(res.Hist.Quantile(0.99))/1e3,
				res.Shed, res.Errors)
		}
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v < 0 || v > 1 {
			return nil, fmt.Errorf("bad entry %q (want 0..1)", f)
		}
		out = append(out, v)
	}
	return out, nil
}
