// Example intruder: the paper's §6.2 application end to end. Runs the
// signature-based network intrusion detector over the STAMP workload
// under every synchronization policy and verifies each finds exactly
// the injected attacks.
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/apps/intruder"
)

func main() {
	flows := flag.Int("n", 4096, "number of flows (paper: 16384)")
	attacks := flag.Int("a", 10, "attack percentage")
	maxLen := flag.Int("l", 256, "max flow length")
	seed := flag.Int64("s", 1, "seed")
	workers := flag.Int("workers", 4, "worker count")
	flag.Parse()

	cfg := intruder.Config{Attacks: *attacks, MaxLength: *maxLen, Flows: *flows, Seed: *seed}
	w := intruder.Generate(cfg)
	fmt.Printf("workload: %d flows, %d packets, %d attack flows injected\n",
		cfg.Flows, len(w.Packets), w.AttackFlows)

	for _, pol := range intruder.Policies() {
		proc := intruder.NewProcessor(pol)
		start := time.Now()
		found := intruder.Run(w, proc, *workers)
		status := "OK"
		if found != w.AttackFlows {
			status = "MISMATCH"
		}
		fmt.Printf("%-8s %d workers: %5d attacks detected in %8v  [%s]\n",
			pol, *workers, found, time.Since(start).Round(time.Microsecond), status)
	}
}
