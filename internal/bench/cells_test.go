package bench

import (
	"testing"
	"time"

	"repro/internal/apps/gossip"
	"repro/internal/core"
	"repro/internal/modules/plan"
)

// TestDrainAuditReportsHold: an acquisition left unreleased is one
// outstanding hold and a quiescence error; releasing it clears both.
func TestDrainAuditReportsHold(t *testing.T) {
	o := gossip.NewOurs(0, plan.Options{})
	seedGroups(o, chaosGroups)
	sems := o.Sems()
	waiters0 := core.WaitersOutstanding()

	sems[0].Acquire(0)
	holds, waiters, quiesce := drainAudit(sems, waiters0)
	if holds != 1 || waiters != 0 || quiesce == "" {
		t.Errorf("held: holds=%d waiters=%d quiesce=%q, want 1, 0 and an error", holds, waiters, quiesce)
	}
	sems[0].Release(0)
	if holds, waiters, quiesce = drainAudit(sems, waiters0); holds != 0 || waiters != 0 || quiesce != "" {
		t.Errorf("released: holds=%d waiters=%d quiesce=%q, want all zero", holds, waiters, quiesce)
	}
}

// TestResilienceArms drives both arms of the resilience experiment for
// short windows: the nil-policy arm completes operations and drops
// none, the policied arm drops under a hold, and neither leaves a hold,
// a waiter or a non-quiescent instance behind.
func TestResilienceArms(t *testing.T) {
	cfg := ResilienceConfig{Duration: 20 * time.Millisecond, Workers: 2, Interval: 4 * time.Millisecond}
	for _, hold := range []time.Duration{0, 2 * time.Millisecond} {
		off, err := resilienceCell(cfg, hold, nil, nil)
		if err != nil {
			t.Fatalf("hold %v, no policy: %v", hold, err)
		}
		if off.ops == 0 || off.dropped != 0 {
			t.Errorf("hold %v, no policy: %d ops, %d dropped; want some ops and no drops", hold, off.ops, off.dropped)
		}
		hot, cold := resiliencePolicies()
		on, err := resilienceCell(cfg, hold, hot, cold)
		if err != nil {
			t.Fatalf("hold %v, policied: %v", hold, err)
		}
		if hold > 0 && on.dropped == 0 {
			t.Errorf("hold %v, policied: no operation dropped", hold)
		}
		for name, arm := range map[string]resilienceArm{"no policy": off, "policied": on} {
			if arm.holds != 0 || arm.waiters != 0 || arm.quiesce != "" {
				t.Errorf("hold %v, %s: leaked holds=%d waiters=%d quiesce=%q", hold, name, arm.holds, arm.waiters, arm.quiesce)
			}
		}
	}
}

// TestChaosBenchStructural runs the chaos experiment at a few hundred
// operations per phase: every structural criterion (the strict bounds
// pinned to exactly 0) reads 0.
func TestChaosBenchStructural(t *testing.T) {
	rep, err := ChaosBench(ChaosConfig{OpsPerPhase: 400, Workers: 4, Flows: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 3 {
		t.Fatalf("%d cells, want 3", len(rep.Cells))
	}
	for _, b := range chaosReport.Strict {
		if b.Max == 0 && rep.Criteria[b.Key] != 0 {
			t.Errorf("%s = %v, want 0", b.Key, rep.Criteria[b.Key])
		}
	}
	for _, c := range rep.Cells {
		if c.Panics == 0 {
			t.Errorf("%s: the injector fired no panic", c.App)
		}
	}
}
