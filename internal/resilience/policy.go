package resilience

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Config assembles one policy: bounded patience plus an optional
// breaker (nil disables it).
type Config struct {
	// Patience bounds each individual lock acquisition (Acquire uses
	// LockWithin with this patience). Default 500µs.
	Patience time.Duration

	Breaker *BreakerConfig
}

// DefaultConfig is 500µs patience and a 1s/8-bucket breaker tripping
// at 500 stalls/s, cooling down for 2ms and closing after 3 probes.
func DefaultConfig() Config {
	return Config{
		Patience: 500 * time.Microsecond,
		Breaker:  &BreakerConfig{TripStallRate: 500, Cooldown: 2 * time.Millisecond, Probes: 3},
	}
}

// Policy bundles the patience and breaker for one traffic class and is
// the object applications hold: Run wraps a whole section in the
// breaker's admission, and Acquire is the bounded per-lock call inside
// a section.
type Policy struct {
	name     string
	patience time.Duration
	breaker  *Breaker

	runs          atomic.Uint64
	stallFailures atomic.Uint64
}

// New creates a policy named name (the telemetry key) from cfg.
func New(name string, cfg Config) *Policy {
	if cfg.Patience <= 0 {
		cfg.Patience = 500 * time.Microsecond
	}
	p := &Policy{name: name, patience: cfg.Patience}
	if cfg.Breaker != nil {
		p.breaker = NewBreaker(name, *cfg.Breaker)
	}
	return p
}

// Name returns the policy's telemetry key.
func (p *Policy) Name() string { return p.name }

// Patience returns the bound the policy puts on each lock acquisition,
// for section bodies that pass it to the core's bounded calls directly.
func (p *Policy) Patience() time.Duration { return p.patience }

// Breaker returns the policy's breaker, nil if disabled.
func (p *Policy) Breaker() *Breaker { return p.breaker }

// Acquire is the policy-bounded lock call for use inside a Run section:
// LockWithin with the policy's patience. A returned *StallError aborts
// the section: return it from the section closure.
func (p *Policy) Acquire(tx *core.Txn, s *core.Semantic, m core.ModeID, rank int) error {
	return tx.LockWithin(s, m, rank, p.patience)
}

// stalled reports whether err is a stall — the failure the breaker
// counts against a half-open probe.
func stalled(err error) bool {
	var stall *core.StallError
	return errors.As(err, &stall)
}

// Run executes section as one policied atomic section: breaker
// admission, then core.Atomically(section). The section closure returns
// an error to abort (typically a *StallError from Acquire); held locks
// release through the section epilogue before Run returns it.
func (p *Policy) Run(section func(tx *core.Txn) error) error {
	return p.guarded(func() error {
		var serr error
		core.Atomically(func(tx *core.Txn) { serr = section(tx) })
		return serr
	})
}

// guarded runs one attempt behind the breaker. It is kept out of Run so
// that Run inlines into the Resilient wrappers, which keeps those
// wrappers too large to inline into the server's frame loop
// (EXPERIMENTS.md "The gate the controller chose"). The breaker's done
// callback runs via defer so a panicking section (chaos injection)
// still votes — as a failure — instead of leaking a half-open probe
// slot.
func (p *Policy) guarded(attempt func() error) error {
	var done func(bool)
	if p.breaker != nil {
		d, err := p.breaker.Allow()
		if err != nil {
			return err
		}
		done = d
	}
	p.runs.Add(1)
	ok := false
	defer func() {
		if done != nil {
			done(ok)
		}
	}()
	err := attempt()
	if ok = err == nil || !stalled(err); !ok {
		p.stallFailures.Add(1)
	}
	return err
}

// ObserveStall feeds one unified-stall-feed event into the breaker
// window. Wired by the Manager.
func (p *Policy) ObserveStall(ev core.StallEvent) {
	if p.breaker != nil {
		p.breaker.RecordStall(ev)
	}
}

// Stats returns the policy's telemetry row plus the breaker's, suitable
// for telemetry.Registry.RegisterPolicySource.
func (p *Policy) Stats() []telemetry.PolicyStats {
	out := []telemetry.PolicyStats{{
		Policy: p.name,
		Kind:   "policy",
		Counters: map[string]uint64{
			"runs":           p.runs.Load(),
			"stall_failures": p.stallFailures.Load(),
		},
	}}
	if p.breaker != nil {
		out = append(out, p.breaker.Stats())
	}
	return out
}
