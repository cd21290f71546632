package bench

import (
	"testing"
	"time"

	"repro/internal/apps/gossip"
	"repro/internal/core"
)

// TestDrainAuditReportsHold: an acquisition left unreleased is one
// outstanding hold and a quiescence error; releasing it clears both.
func TestDrainAuditReportsHold(t *testing.T) {
	o := gossip.NewOurs()
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

// TestResilienceArms drives both arms of a resilience sweep point for
// short rounds: the nil-policy arm completes operations and fails none,
// the policied arm drops under a hold, and neither leaves a hold, a
// waiter or a non-quiescent instance behind.
func TestResilienceArms(t *testing.T) {
	cfg := ResilienceConfig{Duration: 20 * time.Millisecond, Workers: 2, Interval: 4 * time.Millisecond}
	for _, hold := range []time.Duration{0, 2 * time.Millisecond} {
		pt, _, err := resiliencePoint(cfg, hold)
		if err != nil {
			t.Fatalf("hold %v: %v", hold, err)
		}
		if pt.OffOps == 0 {
			t.Errorf("hold %v, no policy: no operation completed", hold)
		}
		if hold > 0 && pt.Dropped == 0 {
			t.Errorf("hold %v, policied: no operation dropped", hold)
		}
		if pt.LeakedLocks != 0 || pt.LeakedWaiters != 0 || pt.QuiesceError != "" {
			t.Errorf("hold %v: leaked holds=%d waiters=%d quiesce=%q", hold, pt.LeakedLocks, pt.LeakedWaiters, pt.QuiesceError)
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
