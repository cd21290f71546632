// Fixture for malformed suppression directives: a directive without a
// reason, with an unknown verb, or naming no analyzer suppresses nothing
// and is itself reported, so typo'd suppressions cannot silently
// disable a check.
package tdata

import "repro/internal/core"

type box struct{ sem *core.Semantic }

func bad(b *box, m core.ModeID) {
	//semlockvet:ignore txndiscipline // want "malformed semlockvet:ignore directive"
	b.sem.Acquire(m) // want "raw Semantic.Acquire"
	//semlockvet:frob txndiscipline -- bogus verb // want "unknown verb"
	b.sem.Release(m) // want "raw Semantic.Release"
}

func misnamed(b *box, m core.ModeID) {
	//semlockvet:ignore txndiscpline -- misspelled // want "names no analyzer of this run"
	b.sem.Acquire(m) // want "raw Semantic.Acquire"
	//semlockvet:file-ignore paddedcopy -- its analyzer is gone // want "names no analyzer of this run"
}
