// Package bench regenerates the paper's evaluation figures (§6): for
// each figure it runs every synchronization policy across the thread
// counts of the paper (1–32) on the virtual-time simulator
// (internal/sim, the 32-core substitute) and can additionally measure
// real execution on the host for overhead comparisons. Output is the
// same series the paper plots.
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// ThreadCounts is the x-axis of every figure in §6.
var ThreadCounts = []int{1, 2, 4, 8, 16, 32}

// Series is one policy's curve.
type Series struct {
	Name   string
	Values map[int]float64 // threads → value
}

// Figure is one reproduced evaluation figure.
type Figure struct {
	ID     string // "fig21" ... "fig25", "ablation-*"
	Title  string
	YLabel string
	Xs     []int
	Series []Series
	Notes  []string
}

// Format renders the figure as an aligned text table (the repository's
// equivalent of the paper's plots).
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(f.ID[:1])+f.ID[1:], f.Title)
	fmt.Fprintf(&b, "y: %s\n", f.YLabel)
	fmt.Fprintf(&b, "%-8s", "threads")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%12s", s.Name)
	}
	b.WriteString("\n")
	for _, x := range f.Xs {
		fmt.Fprintf(&b, "%-8d", x)
		for _, s := range f.Series {
			fmt.Fprintf(&b, "%12.2f", s.Values[x])
		}
		b.WriteString("\n")
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// SeriesByName returns the named series.
func (f *Figure) SeriesByName(name string) (Series, bool) {
	for _, s := range f.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// Check verifies a qualitative claim: at the given thread count, series
// a ≥ factor × series b.
func (f *Figure) Check(a, b string, threads int, factor float64) error {
	sa, oka := f.SeriesByName(a)
	sb, okb := f.SeriesByName(b)
	if !oka || !okb {
		return fmt.Errorf("%s: missing series %q or %q", f.ID, a, b)
	}
	if sa.Values[threads] < factor*sb.Values[threads] {
		return fmt.Errorf("%s at %d threads: %s=%.2f < %.2f × %s=%.2f",
			f.ID, threads, a, sa.Values[threads], factor, b, sb.Values[threads])
	}
	return nil
}

// Scalability returns value(maxThreads)/value(1) for a series.
func (f *Figure) Scalability(name string) float64 {
	s, ok := f.SeriesByName(name)
	if !ok {
		return 0
	}
	base := s.Values[f.Xs[0]]
	if base == 0 {
		return 0
	}
	return s.Values[f.Xs[len(f.Xs)-1]] / base
}

// addSeries appends one series per name, valued at each of f's thread
// counts by value(name, threads).
func (f *Figure) addSeries(names []string, value func(name string, threads int) float64) {
	for _, name := range names {
		s := Series{Name: name, Values: map[int]float64{}}
		for _, x := range f.Xs {
			s.Values[x] = value(name, x)
		}
		f.Series = append(f.Series, s)
	}
}

// addSpeedups appends one series per name: the time run takes at one
// thread over its time at each of f's thread counts, in percent.
func (f *Figure) addSpeedups(names []string, run func(name string, threads int) float64) {
	for _, name := range names {
		base := run(name, 1)
		f.addSeries([]string{name}, func(name string, T int) float64 { return base / run(name, T) * 100 })
	}
}

// sortedStringKeys is a helper for deterministic map iteration in reports.
func sortedStringKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
