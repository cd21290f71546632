//go:build ignore

// semlockc compiles this file into graph_semlock.go (go generate).

package graph

import (
	"repro/internal/core"
	"repro/internal/semadt"
)

// The successor and predecessor multimaps are distinct allocation sites,
// so each forms its own equivalence class (the //semlock:class splits).

// findSuccessors returns the successors of n.
//
//semlock:atomic
//semlock:class succs Multimap$succs
func findSuccessors(succs *semadt.Multimap, n int) []core.Value {
	var out []core.Value
	out = succs.Get(n)
	return out
}

// findPredecessors returns the predecessors of n.
//
//semlock:atomic
//semlock:class preds Multimap$preds
func findPredecessors(preds *semadt.Multimap, n int) []core.Value {
	var out []core.Value
	out = preds.Get(n)
	return out
}

// insertEdge adds the edge s→d to both multimaps, reporting whether it
// is new.
//
//semlock:atomic
//semlock:class succs Multimap$succs
//semlock:class preds Multimap$preds
func insertEdge(succs, preds *semadt.Multimap, s, d int) bool {
	var ok bool
	ok = succs.Put(s, d)
	if ok {
		preds.Put(d, s)
	}
	return ok
}

// removeEdge deletes the edge s→d from both multimaps, reporting
// whether it was present.
//
//semlock:atomic
//semlock:class succs Multimap$succs
//semlock:class preds Multimap$preds
func removeEdge(succs, preds *semadt.Multimap, s, d int) bool {
	var ok bool
	ok = succs.Remove(s, d)
	if ok {
		preds.Remove(d, s)
	}
	return ok
}
