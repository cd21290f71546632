package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// StatsReporter is implemented by the "ours" module variants: cumulative
// semantic-lock acquisition statistics (Fig 20's fast path vs the
// internal-lock slow path).
type StatsReporter interface {
	LockStats() core.LockStats
}

// StatsReport runs each composite module's "ours" variant under real
// concurrency and reports the fast-path hit rate and wait counts — the
// observable effectiveness of Fig 20 lines 3–4 and of lock
// partitioning. Returned as formatted text (`benchall -exp stats`).
func StatsReport(opsPerThread, threads int) string {
	var b strings.Builder
	b.WriteString("Lock-mechanism statistics (real execution, 'ours' variants)\n")
	fmt.Fprintf(&b, "%d threads × %d transactions each\n\n", threads, opsPerThread)
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %10s\n", "module", "fast-path", "slow-path", "waits", "fast%")
	for _, row := range []struct {
		name string
		mix  moduleMix
	}{{"cia", ciaMix}, {"graph", graphMix}, {"cache", cacheMix}} {
		m, op := row.mix("ours")
		measure(threads, opsPerThread, op)
		st := m.(StatsReporter).LockStats()
		total := st.FastPath + st.Slow
		pct := 0.0
		if total > 0 {
			pct = float64(st.FastPath) / float64(total) * 100
		}
		fmt.Fprintf(&b, "%-10s %12d %12d %12d %9.2f%%\n", row.name, st.FastPath, st.Slow, st.Waits, pct)
	}
	return b.String()
}
