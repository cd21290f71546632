//go:build !race

package rangestore

const raceEnabled = false
