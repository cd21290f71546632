// Package modules_test verifies, for every evaluation module, that the
// "ours" code paths match the synthesized plans: the mode each
// implementation acquires covers exactly the runtime operations the
// implementation performs inside it (the S2PL rule of §2.3, checked
// statically against the compiled tables). The composite modules cia,
// graph and cache run sections semlockc compiled; the apps gossip,
// intruder and rangestore are still hand-written, and for them this is
// the check that the transcription matches the plan.
package modules_test

import (
	"strings"
	"testing"

	"repro/internal/adtspecs"
	"repro/internal/apps/gossip"
	"repro/internal/apps/intruder"
	"repro/internal/apps/rangestore"
	"repro/internal/core"
	"repro/internal/modules/cache"
	"repro/internal/modules/cia"
	"repro/internal/modules/graph"
	"repro/internal/modules/plan"
	"repro/internal/modules/planreg"
)

func opts() plan.Options { return plan.Options{AbstractValues: 8} }

func mustCover(t *testing.T, tbl *core.ModeTable, m core.ModeID, ops ...core.Op) {
	t.Helper()
	for _, op := range ops {
		if !tbl.CoversOp(m, op) {
			t.Errorf("mode %s does not cover %s", tbl.Mode(m), op)
		}
	}
}

func mustNotCover(t *testing.T, tbl *core.ModeTable, m core.ModeID, ops ...core.Op) {
	t.Helper()
	for _, op := range ops {
		if tbl.CoversOp(m, op) {
			t.Errorf("mode %s unexpectedly covers %s", tbl.Mode(m), op)
		}
	}
}

// TestCIACoverage: the CIA transaction performs get(k) and put(k, v);
// the acquired mode must cover both for the transaction's own key and
// neither for keys in other buckets.
func TestCIACoverage(t *testing.T) {
	p := cia.BuildPlan(opts())
	tbl := p.Table("Map")
	ref := p.Ref(0, "m")
	k := 7
	m := ref.Mode(k)
	mustCover(t, tbl, m,
		core.NewOp("get", k),
		core.NewOp("put", k, "any-value"),
	)
	// A key from a different bucket must not be covered.
	for other := 8; other < 300; other++ {
		if ref.Mode(other) != m {
			mustNotCover(t, tbl, m, core.NewOp("get", other), core.NewOp("put", other, 1))
			break
		}
	}
	// The CIA section never removes; its mode must not license it.
	mustNotCover(t, tbl, m, core.NewOp("remove", k), core.NewOp("size"))
}

// TestGraphCoverage: each graph procedure's modes cover exactly its
// operations.
func TestGraphCoverage(t *testing.T) {
	p := graph.BuildPlan(opts())
	succs := p.Table("Multimap$succs")
	preds := p.Table("Multimap$preds")

	s, d, n := 3, 9, 5
	find := p.Ref(0, "succs").Binder1("n")(n)
	mustCover(t, succs, find, core.NewOp("get", n))
	mustNotCover(t, succs, find, core.NewOp("put", n, d), core.NewOp("remove", n, d))

	ins := p.Ref(2, "succs").Binder2("s", "d")(s, d)
	mustCover(t, succs, ins, core.NewOp("put", s, d))
	mustNotCover(t, succs, ins, core.NewOp("get", s), core.NewOp("removeAll", s))

	insP := p.Ref(2, "preds").Binder2("d", "s")(d, s)
	mustCover(t, preds, insP, core.NewOp("put", d, s))

	rem := p.Ref(3, "succs").Binder2("s", "d")(s, d)
	mustCover(t, succs, rem, core.NewOp("remove", s, d))
	mustNotCover(t, succs, rem, core.NewOp("put", s, d))

	// And the cross-mode conflict the swapped-argument bug would lose:
	// find(s) must conflict with insert(s, d).
	findS := p.Ref(0, "succs").Binder1("n")(s)
	if succs.Commute(findS, ins) {
		t.Error("find(s) must conflict with insert(s,d) — get/put on one key")
	}
}

// TestCacheCoverage: Get's eden mode covers the promotion put; Put's
// eden mode covers size, clear and the put.
func TestCacheCoverage(t *testing.T) {
	p := cache.BuildPlan(opts())
	eden := p.Table("Map$eden")
	long := p.Table("Map$longterm")

	k, v := 11, "val"
	get := p.Ref(0, "eden").Mode(k)
	mustCover(t, eden, get, core.NewOp("get", k), core.NewOp("put", k, v))
	mustNotCover(t, eden, get, core.NewOp("size"), core.NewOp("clear"))

	put := p.Ref(1, "eden").Binder2("k", "v")(k, v)
	mustCover(t, eden, put,
		core.NewOp("size"), core.NewOp("clear"), core.NewOp("put", k, v))

	lget := p.Ref(0, "longterm").Mode(k)
	mustCover(t, long, lget, core.NewOp("get", k))
	mustNotCover(t, long, lget, core.NewOp("put", k, v))
}

// TestIntruderCoverage: the reassembly mode covers get/put/remove of
// the flow and the pop mode covers dequeue.
func TestIntruderCoverage(t *testing.T) {
	p := intruder.BuildPlan(opts())
	fmapTbl := p.Table("Map")
	qTbl := p.Table("Queue")

	flow := 1234
	m := p.Ref(0, "fmap").Mode(flow)
	mustCover(t, fmapTbl, m,
		core.NewOp("get", flow),
		core.NewOp("put", flow, "state"),
		core.NewOp("remove", flow),
	)
	enc := p.Ref(0, "decoded").Mode("payload")
	mustCover(t, qTbl, enc, core.NewOp("enqueue", "payload"))
	mustNotCover(t, qTbl, enc, core.NewOp("dequeue"))
	pop := p.Ref(1, "decoded").Mode()
	mustCover(t, qTbl, pop, core.NewOp("dequeue"))
}

// TestGossipCoverage: the router's modes cover the member-map
// operations each section performs.
func TestGossipCoverage(t *testing.T) {
	p := gossip.BuildPlan(plan.Options{AbstractValues: 8, MaxModes: 1024})
	members := p.Table("Map$members")
	groups := p.Table("Map$groups")

	reg := p.Ref(0, "members").Binder2("m", "conn")("alice", "conn-id")
	mustCover(t, members, reg, core.NewOp("put", "alice", "conn-id"))

	mc := p.Ref(3, "members").Mode()
	mustCover(t, members, mc, core.NewOp("values"))
	mustNotCover(t, members, mc, core.NewOp("put", "alice", 1))

	rg := p.Ref(0, "groups").Mode("g1")
	mustCover(t, groups, rg, core.NewOp("get", "g1"), core.NewOp("put", "g1", "anything"))
}

// TestRangestoreCoverage: the store's sections perform more than their
// names say — PutPair's togglePair reads the key it writes, and Scan and
// ScanPessimistic call Size under the values() mode — so the write mode
// must cover get(k) and the scan mode size(). Each mode is found in the
// store's own table by the operation only it licenses: a key's write mode
// covers put(k), its read mode get(k) and not put(k), the scan mode
// values(). Adding the two operations must not change what the modes
// exclude: every F_c row, mechanism and ExcludesMutators answer is the
// one of the table built without them.
func TestRangestoreCoverage(t *testing.T) {
	shipped := rangestore.New(2, 64).Sems()[0].Table()
	writeSet := core.SymSetOf(
		core.SymOpOf("put", core.VarArg("k"), core.Star()),
		core.SymOpOf("remove", core.VarArg("k")))
	getSet := core.SymSetOf(core.SymOpOf("get", core.VarArg("k")))
	scanSet := core.SymSetOf(core.SymOpOf("values"))
	bare := core.NewModeTable(adtspecs.Map(), []core.SymSet{writeSet, getSet, scanSet},
		core.TableOptions{Phi: core.NewPhi(16)})

	// roles lists a table's modes in one order for both tables: each
	// key's write and read modes, then the scan mode.
	roles := func(tbl *core.ModeTable) []core.ModeID {
		find := func(covers, not core.Op) core.ModeID {
			found := core.ModeID(-1)
			for id := range tbl.Modes() {
				m := core.ModeID(id)
				if tbl.CoversOp(m, covers) && (not.Method == "" || !tbl.CoversOp(m, not)) {
					if found >= 0 {
						t.Fatalf("modes %d and %d both license %s", found, m, covers)
					}
					found = m
				}
			}
			if found < 0 {
				t.Fatalf("no mode licenses %s", covers)
			}
			return found
		}
		var out []core.ModeID
		for k := 0; k < 64; k++ {
			put := core.NewOp("put", k, "v")
			out = append(out, find(put, core.Op{}), find(core.NewOp("get", k), put))
		}
		return append(out, find(core.NewOp("values"), core.Op{}))
	}
	got, was := roles(shipped), roles(bare)
	for i := 0; i < 128; i += 2 {
		k := i / 2
		mustCover(t, shipped, got[i], core.NewOp("get", k), core.NewOp("put", k, k), core.NewOp("remove", k))
		mustCover(t, shipped, got[i+1], core.NewOp("get", k))
	}
	mustCover(t, shipped, got[128], core.NewOp("values"), core.NewOp("size"))

	if len(shipped.Modes()) != len(bare.Modes()) || shipped.CanonicalCount() != bare.CanonicalCount() ||
		shipped.NumMechanisms() != bare.NumMechanisms() {
		t.Errorf("table shape: %d modes, %d canonical, %d mechanisms; without the added operations %d, %d, %d",
			len(shipped.Modes()), shipped.CanonicalCount(), shipped.NumMechanisms(),
			len(bare.Modes()), bare.CanonicalCount(), bare.NumMechanisms())
	}
	for i := range got {
		if shipped.ExcludesMutators(got[i]) != bare.ExcludesMutators(was[i]) ||
			shipped.MechanismOf(got[i]) != bare.MechanismOf(was[i]) {
			t.Errorf("mode %s: ExcludesMutators %v mechanism %d; without the added operations %v, %d",
				shipped.Mode(got[i]), shipped.ExcludesMutators(got[i]), shipped.MechanismOf(got[i]),
				bare.ExcludesMutators(was[i]), bare.MechanismOf(was[i]))
		}
		for j := range got {
			if shipped.Commute(got[i], got[j]) != bare.Commute(was[i], was[j]) {
				t.Errorf("F_c(%s, %s) = %v; without the added operations %v",
					shipped.Mode(got[i]), shipped.Mode(got[j]), shipped.Commute(got[i], got[j]), bare.Commute(was[i], was[j]))
			}
		}
	}
}

// TestExcludesMutators reads ModeTable.ExcludesMutators off every
// shipped table (planreg's plans plus rangestore's) and compares it, mode by mode, with the answer written
// here per mode shape (the methods a mode holds). What the rows say:
//
//   - gossip's member {values()} — the mode multicast's RangeHeld walk
//     rests on — excludes every mutator, and so does rangestore's scan
//     mode, the queue's {dequeue()} (no commuting entry at all) and any
//     mode holding clear();
//   - no single-key mode does where another key's mutator can run beside
//     it: put/remove/get on α commute with put/remove on α' ≠ α, and
//     enqueues commute with each other;
//   - cache's longterm map is the instructive exception: its only
//     mutator is putAll, which the Map spec lets commute with nothing,
//     so even {get(k)} keeps every mutator out. True by derivation — the
//     reason the query is computed, not guessed from a mode's arity.
func TestExcludesMutators(t *testing.T) {
	tables := map[string]*core.ModeTable{
		"rangestore": rangestore.New(2, 64).Sems()[0].Table(),
	}
	for _, e := range planreg.All() {
		for class, tbl := range e.Res.Tables {
			tables[e.Domain+"/"+class] = tbl
		}
	}
	want := map[string]map[string]bool{
		"apps/gossip/Map$groups":       {"get": false, "get+put": false},
		"apps/gossip/Map$members":      {"get": false, "put": false, "remove": false, "values": true},
		"rangestore":                   {"get": false, "get+put+remove": false, "size+values": true},
		"apps/intruder/Map":            {"get+put+remove": false},
		"apps/intruder/Queue":          {"enqueue": false, "dequeue": true},
		"modules/cia/Map":              {"get+put": false},
		"modules/graph/Multimap$succs": {"get": false, "put": false, "remove": false},
		"modules/graph/Multimap$preds": {"get": false, "put": false, "remove": false},
		"modules/cache/Map$eden":       {"get+put": false, "clear+put+size": true},
		"modules/cache/Map$longterm":   {"get": true, "putAll": true},
	}
	if len(tables) != len(want) {
		t.Errorf("%d shipped tables, answers written for %d", len(tables), len(want))
	}
	for name, tbl := range tables {
		seen := make(map[string]bool)
		for id, m := range tbl.Modes() {
			methods := make([]string, len(m.Ops))
			for i, op := range m.Ops {
				methods[i] = op.Method
			}
			shape := strings.Join(methods, "+")
			seen[shape] = true
			exp, ok := want[name][shape]
			if !ok {
				t.Errorf("%s: no answer written for mode %s", name, m)
			} else if got := tbl.ExcludesMutators(core.ModeID(id)); got != exp {
				t.Errorf("%s: ExcludesMutators(%s) = %v, want %v", name, m, got, exp)
			}
		}
		for shape := range want[name] {
			if !seen[shape] {
				t.Errorf("%s: no mode of shape %s in the table", name, shape)
			}
		}
	}
}
