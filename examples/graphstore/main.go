// Example graphstore: the §6.1 Graph composite module used as a small
// concurrent graph database. Demonstrates the multi-ADT atomicity the
// paper targets — every edge mutation touches both the successor and
// predecessor multimaps, and the mirror invariant survives a concurrent
// mixed workload under the synthesized locking.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/modules/graph"
)

func main() {
	workers := flag.Int("workers", 8, "concurrent workers")
	ops := flag.Int("ops", 20000, "operations per worker")
	nodes := flag.Int("nodes", 1<<12, "node space")
	flag.Parse()

	for _, pol := range graph.Policies() {
		g := graph.New(pol)
		start := time.Now()
		var wg sync.WaitGroup
		for wk := 0; wk < *workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(wk) + 42))
				for i := 0; i < *ops; i++ {
					op := rng.Intn(100)
					a, b := rng.Intn(*nodes), rng.Intn(*nodes)
					switch {
					case op < 35:
						g.FindSuccessors(a)
					case op < 70:
						g.FindPredecessors(a)
					case op < 90:
						g.InsertEdge(a, b)
					default:
						g.RemoveEdge(a, b)
					}
				}
			}(wk)
		}
		wg.Wait()
		elapsed := time.Since(start)

		// Verify the mirror invariant on a sample of nodes.
		broken := 0
		for n := 0; n < 256; n++ {
			for _, d := range g.FindSuccessors(n) {
				ok := false
				for _, back := range g.FindPredecessors(d.(int)) {
					if back == n {
						ok = true
					}
				}
				if !ok {
					broken++
				}
			}
		}
		fmt.Printf("%-8s %7.0f ops/ms, mirror violations: %d\n",
			pol, float64(*workers**ops)/float64(elapsed.Microseconds())*1000, broken)
		if broken != 0 {
			panic("graph invariant broken")
		}
	}
}
