//go:build race

package rangestore

// raceEnabled skips exact allocs/op assertions under the race detector,
// whose conservative escape analysis heap-allocates closures the normal
// build keeps on the stack.
const raceEnabled = true
