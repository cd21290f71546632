package telemetry_test

import (
	"encoding/json"
	"expvar"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/adtspecs"
	"repro/internal/core"
	"repro/internal/telemetry"
)

func keyedTable(t *testing.T) (*core.ModeTable, core.SetRef, core.SetRef) {
	t.Helper()
	keySet := core.SymSetOf(
		core.SymOpOf("get", core.VarArg("k")),
		core.SymOpOf("put", core.VarArg("k"), core.Star()),
		core.SymOpOf("remove", core.VarArg("k")))
	sizeSet := core.SymSetOf(core.SymOpOf("size"))
	tbl := core.NewModeTable(adtspecs.Map(), []core.SymSet{keySet, sizeSet},
		core.TableOptions{Phi: core.NewPhi(4)})
	return tbl, tbl.Set(keySet), tbl.Set(sizeSet)
}

// TestRegistrySnapshotAggregates: the snapshot rows must equal the sums
// of the registered instances' own Stats.
func TestRegistrySnapshotAggregates(t *testing.T) {
	tbl, keys, _ := keyedTable(t)
	a, b := core.NewSemantic(tbl), core.NewSemantic(tbl)
	for i := 0; i < 10; i++ {
		m := keys.Mode(i)
		a.Acquire(m)
		a.Release(m)
		if i < 5 {
			b.Acquire(m)
			b.Release(m)
		}
	}
	m0 := keys.Mode(0)
	b.Acquire(m0) // leave one hold outstanding

	r := telemetry.NewRegistry()
	r.Register("maps", "Map", a, b)
	snap := r.Snapshot()
	if len(snap.Groups) != 1 {
		t.Fatalf("got %d rows, want 1", len(snap.Groups))
	}
	row := snap.Groups[0]
	if row.Group != "maps" || row.Class != "Map" || row.Instances != 2 {
		t.Errorf("row identity = %+v", row)
	}
	want := a.Stats().FastPath + b.Stats().FastPath
	if row.FastPath != want {
		t.Errorf("FastPath = %d, want %d", row.FastPath, want)
	}
	if row.OutstandingHolds != 1 {
		t.Errorf("OutstandingHolds = %d, want 1", row.OutstandingHolds)
	}
	b.Release(m0)
	if got := r.Snapshot().Groups[0].OutstandingHolds; got != 0 {
		t.Errorf("OutstandingHolds after release = %d, want 0", got)
	}
}

// TestRegistryProviderAndUnregister: provider-backed groups re-read
// their instance list each snapshot; Unregister removes all groups of
// a name.
func TestRegistryProviderAndUnregister(t *testing.T) {
	tbl, keys, _ := keyedTable(t)
	var mu sync.Mutex
	var sems []*core.Semantic
	r := telemetry.NewRegistry()
	r.RegisterProvider("dyn", "Map", func() []*core.Semantic {
		mu.Lock()
		defer mu.Unlock()
		return append([]*core.Semantic(nil), sems...)
	})
	if got := r.Snapshot().Groups[0].Instances; got != 0 {
		t.Fatalf("Instances = %d, want 0", got)
	}
	s := core.NewSemantic(tbl)
	m := keys.Mode(1)
	s.Acquire(m)
	s.Release(m)
	mu.Lock()
	sems = append(sems, s)
	mu.Unlock()
	row := r.Snapshot().Groups[0]
	if row.Instances != 1 || row.FastPath != 1 {
		t.Errorf("row = %+v, want 1 instance with 1 fast-path acquire", row)
	}
	r.Unregister("dyn")
	if n := len(r.Snapshot().Groups); n != 0 {
		t.Errorf("groups after Unregister = %d, want 0", n)
	}
}

// TestSectionCountersInSnapshot: panics recovered by Atomically and
// Txn.Abort calls show up in the snapshot (as monotone process-wide
// counters, asserted by delta).
func TestSectionCountersInSnapshot(t *testing.T) {
	r := telemetry.NewRegistry()
	before := r.Snapshot()
	func() {
		defer func() {
			if _, ok := recover().(*core.SectionPanic); !ok {
				t.Error("expected *core.SectionPanic")
			}
		}()
		core.Atomically(func(*core.Txn) { panic("boom") })
	}()
	core.Atomically(func(tx *core.Txn) { tx.Abort() })
	after := r.Snapshot()
	if d := after.SectionPanicsRecovered - before.SectionPanicsRecovered; d != 1 {
		t.Errorf("SectionPanicsRecovered delta = %d, want 1", d)
	}
	if d := after.SectionAborts - before.SectionAborts; d != 1 {
		t.Errorf("SectionAborts delta = %d, want 1", d)
	}
}

// TestPublishAndHandler: the expvar variable and the JSON handler both
// serve a decodable snapshot.
func TestPublishAndHandler(t *testing.T) {
	tbl, keys, _ := keyedTable(t)
	s := core.NewSemantic(tbl)
	m := keys.Mode(2)
	s.Acquire(m)
	s.Release(m)
	r := telemetry.NewRegistry()
	r.Register("pub", "Map", s)
	r.Publish()
	r.Publish() // idempotent — must not panic on the duplicate expvar name

	v := expvar.Get("semlock")
	if v == nil {
		t.Fatal("expvar semlock not published")
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar JSON: %v", err)
	}
	if len(snap.Groups) != 1 || snap.Groups[0].FastPath != 1 {
		t.Errorf("expvar snapshot = %+v", snap)
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/semlock", nil))
	snap = telemetry.Snapshot{}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("handler JSON: %v", err)
	}
	if len(snap.Groups) != 1 || snap.Groups[0].Group != "pub" {
		t.Errorf("handler snapshot = %+v", snap)
	}
}
