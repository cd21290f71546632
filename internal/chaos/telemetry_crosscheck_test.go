package chaos_test

import (
	"testing"
	"time"

	"repro/internal/apps/gossip"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestChaosTelemetryCrossCheck pins the agreement between the chaos
// harness's own accounting and the telemetry layer's view of the same
// run: after a faulted burst drains, a telemetry snapshot over the
// router's instances must report zero outstanding holds (what
// CheckQuiesced proves by direct inspection), the recovered-panic
// counter delta must equal the injector's panic count exactly (every
// injected panic unwinds through exactly one atomic section, is counted
// there, and is absorbed by Shield), and the registered-waiter total
// must return to its pre-run value. A disagreement in any of the three
// means the observability layer would misreport a real incident.
func TestChaosTelemetryCrossCheck(t *testing.T) {
	panics0 := core.SectionPanicsRecovered()
	aborts0 := core.SectionAborts()
	waiters0 := core.WaitersOutstanding()

	r := gossip.NewOurs()
	inj := chaos.NewInjector(chaos.Config{
		PanicEvery: 7,
		DelayEvery: 5,
		MaxDelay:   200 * time.Microsecond,
	})
	r.FaultHook = inj.Hook
	seedGossip(r)

	inj.Arm()
	faulted := gossipMix(r, 8, 300)
	inj.Disarm()

	panics, _, _ := inj.Counts()
	if panics == 0 || faulted == 0 {
		t.Fatalf("injector idle: %d panics, %d faulted ops", panics, faulted)
	}
	for _, s := range r.Sems() {
		if err := s.CheckQuiesced(); err != nil {
			t.Fatal(err)
		}
	}

	reg := telemetry.NewRegistry()
	reg.RegisterProvider("gossip", "Map", r.Sems)
	snap := reg.Snapshot()

	var holds int64
	for _, g := range snap.Groups {
		holds += g.OutstandingHolds
	}
	if holds != 0 {
		t.Errorf("telemetry reports %d outstanding holds on a quiesced router, want 0", holds)
	}
	if got := snap.SectionPanicsRecovered - panics0; got != panics {
		t.Errorf("recovered-panic counter delta = %d, injector fired %d panics", got, panics)
	}
	// Injected faults abort by panic, never by Txn.Abort: the abort
	// counter must not have moved.
	if got := snap.SectionAborts - aborts0; got != 0 {
		t.Errorf("section-abort counter delta = %d during a panic-only chaos run, want 0", got)
	}
	if got := snap.WaitersOutstanding - waiters0; got != 0 {
		t.Errorf("registered-waiter delta = %d after drain, want 0", got)
	}

	// The burst did real locking through these instances — the snapshot
	// must show it (otherwise "0 holds" would be vacuous).
	var acquired uint64
	for _, g := range snap.Groups {
		acquired += g.FastPath + g.Slow
	}
	if acquired == 0 {
		t.Error("telemetry snapshot saw no acquisitions from the chaos burst")
	}
}
