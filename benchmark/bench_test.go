package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// differences are the metrics computed by subtracting one measurement
// from another; a single ladder round or a pair of 50 ms windows on a
// busy host can put the smaller one first.
var differences = map[string]bool{
	"resilience.admit_ns":   true,
	"server.handle_self_ns": true,
	"socket.rtt_self_us":    true,
	"trace.overhead_frac":   true,
}

// TestSmoke runs every workload for a fraction of a second, with the
// windows alternating traced and untraced, plus one ladder round: every
// named metric must come out finite and non-negative, and every oracle
// must pass.
func TestSmoke(t *testing.T) {
	ladder, spans, err := runLadder(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 26; len(spans) != want { // 23 reported rungs and 3 that are only subtracted
		t.Errorf("one ladder round wrote %d spans, want one per rung (%d)", len(spans), want)
	}
	for _, wl := range workloads {
		cfg := runConfig{seed: 1, clients: gatedClients, epochs: 1, windows: 2,
			window: 50 * time.Millisecond, warmScale: 0.01,
			traced: func(i int) bool { return i%2 == 1 }}
		r := newRun(wl, cfg)
		if err := r.all(); err != nil {
			t.Fatal(err)
		}
		var res result
		res.count(r.epochs)
		if res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", wl.name, res.Attempted, res.Failed)
		}
		values := loadValues(r)
		for k, v := range ladder {
			values[k] = v
		}
		for k, v := range endToEndValues(r) {
			values[k] = v
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			v, ok := values[d.name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", wl.name, d.name)
			case math.IsNaN(v) || math.IsInf(v, 0):
				t.Errorf("%s: metric %s = %v", wl.name, d.name, v)
			case v < 0 && !differences[d.name]:
				t.Errorf("%s: metric %s = %v, want it non-negative", wl.name, d.name, v)
			}
		}
		for _, d := range endToEnd {
			if values[d.name] == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", wl.name, d.name)
			}
		}
	}
}

// TestContract keeps BENCHMARK.json and the tables in main.go saying
// the same thing.
func TestContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Paths      []string
		Workloads  []struct{ Name string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	asMetrics := func(defs []metricDef) []metric {
		var out []metric
		for _, d := range defs {
			m := metric{Name: d.name, Unit: d.unit, Better: "lower", Bound: d.bound}
			if d.higher {
				m.Better = "higher"
			}
			out = append(out, m)
		}
		return out
	}
	if want := asMetrics(endToEnd); !reflect.DeepEqual(doc.EndToEnd, want) {
		t.Errorf("end_to_end is\n%v\nmain.go says\n%v", doc.EndToEnd, want)
	}
	if want := asMetrics(perLayer); !reflect.DeepEqual(doc.PerLayer, want) {
		t.Errorf("per_layer is\n%v\nmain.go says\n%v", doc.PerLayer, want)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name {
			t.Errorf("workload %d is %s, workloads.go says %s", i, doc.Workloads[i].Name, wl.name)
		}
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, main.go measures for %d", doc.RunSeconds, runSeconds)
	}
}
