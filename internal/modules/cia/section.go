//go:build ignore

// semlockc compiles this file into cia_semlock.go (go generate).

package cia

import "repro/internal/semadt"

// computeIfAbsent is the benchmark's atomic section, the get/put form of
// the pattern. Go cannot name a variable map, so the paper's map is m.
//
//semlock:atomic
func computeIfAbsent(m *semadt.Map, key int) []byte {
	value := m.Get(key)
	if value == nil {
		value = compute()
		m.Put(key, value)
	}
	return value.([]byte)
}
