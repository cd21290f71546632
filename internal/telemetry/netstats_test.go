package telemetry

import (
	"encoding/json"
	"testing"
)

// TestNetSourceSnapshot: registered network sources appear in
// snapshots, accumulate across sources, and disappear on unregister.
func TestNetSourceSnapshot(t *testing.T) {
	r := NewRegistry()
	if got := r.Snapshot().Net; len(got) != 0 {
		t.Fatalf("empty registry has %d net rows", len(got))
	}
	calls := 0
	r.RegisterNetSource(func() []NetStats {
		calls++
		return []NetStats{{
			Server: "gossipd",
			Conns:  map[string]uint64{"accepted": 3, "active": 1},
			Frames: map[string]uint64{"in.lookup": 10, "out.bool": 10, "shed": 2},
		}}
	})
	r.RegisterNetSource(func() []NetStats {
		return []NetStats{{Server: "second", Conns: map[string]uint64{"accepted": 1}}}
	})
	snap := r.Snapshot()
	if calls != 1 || len(snap.Net) != 2 {
		t.Fatalf("calls=%d rows=%d, want 1 call and 2 rows", calls, len(snap.Net))
	}
	if snap.Net[0].Server != "gossipd" || snap.Net[0].Frames["in.lookup"] != 10 {
		t.Fatalf("row 0 = %+v", snap.Net[0])
	}
	// The rows survive the JSON export path (/debug/semlock).
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Net []NetStats `json:"net"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Net) != 2 || back.Net[0].Conns["accepted"] != 3 {
		t.Fatalf("JSON round-trip lost net rows: %+v", back.Net)
	}
}
