//go:build ignore

// semlockc compiles this file into cache_semlock.go (go generate).

package cache

import (
	"repro/internal/core"
	"repro/internal/semadt"
)

// Eden and longterm are distinct allocation sites, so each forms its
// own equivalence class (the //semlock:class splits).

// get reads k from eden; on a miss it promotes k's longterm binding
// back into eden.
//
//semlock:atomic
//semlock:class eden Map$eden
//semlock:class longterm Map$longterm
func get(eden, longterm *semadt.Map, k int) core.Value {
	v := eden.Get(k)
	if v == nil {
		v = longterm.Get(k)
		if v != nil {
			eden.Put(k, v)
		}
	}
	return v
}

// put binds k to v in eden, first flushing eden into longterm when it
// holds limit entries.
//
//semlock:atomic
//semlock:class eden Map$eden
//semlock:class longterm Map$longterm
func put(eden, longterm *semadt.Map, k int, v core.Value, limit int) {
	var s int
	s = eden.Size()
	if s >= limit {
		longterm.PutAll(eden)
		eden.Clear()
	}
	eden.Put(k, v)
}
