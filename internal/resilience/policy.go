package resilience

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Config assembles one policy. Budget, Breaker, and Gate are each
// optional (nil disables the component).
type Config struct {
	// Patience bounds each individual lock acquisition (Acquire uses
	// LockWithin with this patience, AcquireBatch LockBatchWithin).
	// Default 500µs.
	Patience time.Duration
	// Retries caps the number of budgeted re-attempts after a stalled
	// section, on top of the initial attempt. Default 1; negative means
	// zero (no retries).
	Retries int
	// Backoff shapes the jittered delay between retries.
	Backoff Backoff

	Budget  *BudgetConfig
	Breaker *BreakerConfig
	Gate    *GateConfig
}

// DefaultConfig enables all three components with conservative
// settings: 500µs patience, one budgeted retry, a 1s/8-bucket breaker
// tripping at 500 stalls/s, and a 4-deep gate.
func DefaultConfig() Config {
	b := DefaultBudgetConfig()
	return Config{
		Patience: 500 * time.Microsecond,
		Retries:  1,
		Backoff:  Backoff{Base: 100 * time.Microsecond, Max: 2 * time.Millisecond},
		Budget:   &b,
		Breaker:  &BreakerConfig{TripStallRate: 500, Cooldown: 2 * time.Millisecond, Probes: 3},
		Gate:     &GateConfig{MaxConcurrent: 4, QueueDepth: 16, QueueTimeout: time.Millisecond, PressureOn: 8},
	}
}

// Policy bundles the enabled components for one traffic class and is
// the object applications hold: Run wraps a whole section in
// gate→breaker→budgeted-retry, and Acquire/AcquireBatch are the bounded
// per-lock calls inside a section.
type Policy struct {
	name    string
	cfg     Config
	budget  *Budget
	breaker *Breaker
	gate    *Gate

	runs          atomic.Uint64
	stallFailures atomic.Uint64
	retries       atomic.Uint64
}

// New creates a policy named name (the telemetry key) from cfg.
func New(name string, cfg Config) *Policy {
	if cfg.Patience <= 0 {
		cfg.Patience = 500 * time.Microsecond
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	p := &Policy{name: name, cfg: cfg}
	if cfg.Budget != nil {
		p.budget = NewBudget(*cfg.Budget)
	}
	if cfg.Breaker != nil {
		p.breaker = NewBreaker(name, *cfg.Breaker)
	}
	if cfg.Gate != nil {
		p.gate = NewGate(name, *cfg.Gate)
	}
	return p
}

// Name returns the policy's telemetry key.
func (p *Policy) Name() string { return p.name }

// Patience returns the bound the policy puts on each lock acquisition,
// for section bodies that pass it to the core's bounded calls directly.
func (p *Policy) Patience() time.Duration { return p.cfg.Patience }

// Breaker returns the policy's breaker, nil if disabled.
func (p *Policy) Breaker() *Breaker { return p.breaker }

// Gate returns the policy's gate, nil if disabled.
func (p *Policy) Gate() *Gate { return p.gate }

// Budget returns the policy's retry budget, nil if disabled.
func (p *Policy) Budget() *Budget { return p.budget }

// Acquire is the policy-bounded lock call for use inside a Run section:
// LockWithin with the policy's patience. A returned *StallError aborts
// the section (return it from the section closure) and Run decides
// whether the budget admits a retry.
func (p *Policy) Acquire(tx *core.Txn, s *core.Semantic, m core.ModeID, rank int) error {
	return tx.LockWithin(s, m, rank, p.cfg.Patience)
}

// AcquireBatch is Acquire for a fused prologue: LockBatchWithin with the
// policy's patience applied to each instance group.
func (p *Policy) AcquireBatch(tx *core.Txn, locks ...core.BatchLock) error {
	return tx.LockBatchWithin(p.cfg.Patience, locks...)
}

// Retryable reports whether err is a stall — the one failure class the
// budgeted retry loop re-attempts. Sheds and breaker refusals are
// deliberate outcomes, not transient contention.
func Retryable(err error) bool {
	var stall *core.StallError
	return errors.As(err, &stall)
}

// Run executes section as one policied atomic section:
// gate admission → breaker admission → core.Atomically(section), with
// stalled attempts retried under the budget with jittered backoff. The
// section closure returns an error to abort (typically a *StallError
// from Acquire); held locks release through the section epilogue before
// the retry, so nothing is held across a backoff sleep.
func (p *Policy) Run(section func(tx *core.Txn) error) error {
	return p.retryLoop(func() error {
		var serr error
		core.Atomically(func(tx *core.Txn) { serr = section(tx) })
		return serr
	})
}

// retryLoop is Run's budgeted-retry engine: one guarded attempt, then a
// budgeted, backed-off re-attempt per stall up to cfg.Retries. It is
// kept out of Run so that Run inlines into the Resilient wrappers,
// which keeps those wrappers too large to inline into the server's
// frame loop (EXPERIMENTS.md "The gate the controller chose").
func (p *Policy) retryLoop(attempt func() error) error {
	for try := 0; ; try++ {
		err := p.guarded(attempt)
		if err == nil || !Retryable(err) {
			return err
		}
		p.stallFailures.Add(1)
		if try >= p.cfg.Retries {
			return err
		}
		if p.budget != nil && !p.budget.TryWithdraw() {
			return errors.Join(ErrBudgetExhausted, err)
		}
		p.retries.Add(1)
		p.cfg.Backoff.sleep(try)
	}
}

// guarded runs one attempt inside the gate and breaker. The breaker's
// done callback runs via defer so a panicking section (chaos injection)
// still votes — as a failure — instead of leaking a half-open probe
// slot.
func (p *Policy) guarded(attempt func() error) error {
	if p.gate != nil {
		if err := p.gate.Enter(); err != nil {
			return err
		}
		defer p.gate.Exit()
	}
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
	ok = err == nil || !Retryable(err)
	return err
}

// ObserveStall feeds one unified-stall-feed event into the breaker
// window. Wired by the Manager.
func (p *Policy) ObserveStall(ev core.StallEvent) {
	if p.breaker != nil {
		p.breaker.RecordStall(ev)
	}
}

// ObserveWaiters feeds one outstanding-waiter sample into the breaker
// window and applies the gate's pressure hysteresis. Wired by the
// Manager's control loop.
func (p *Policy) ObserveWaiters(n int64) {
	if p.breaker != nil {
		p.breaker.ObserveWaiters(n)
	}
	if p.gate != nil && p.cfg.Gate.PressureOn > 0 {
		if n >= p.cfg.Gate.PressureOn {
			p.gate.SetPressure(true)
		} else if n <= p.cfg.Gate.PressureOff {
			p.gate.SetPressure(false)
		}
	}
}

// Stats returns one telemetry row per enabled component plus the
// policy-level retry row, suitable for
// telemetry.Registry.RegisterPolicySource.
func (p *Policy) Stats() []telemetry.PolicyStats {
	out := []telemetry.PolicyStats{{
		Policy: p.name,
		Kind:   "policy",
		Counters: map[string]uint64{
			"runs":           p.runs.Load(),
			"stall_failures": p.stallFailures.Load(),
			"retries":        p.retries.Load(),
		},
	}}
	if p.budget != nil {
		granted, denied := p.budget.Counts()
		out = append(out, telemetry.PolicyStats{
			Policy:   p.name,
			Kind:     "budget",
			Counters: map[string]uint64{"granted": granted, "denied": denied},
			Rates:    map[string]float64{"tokens": p.budget.Tokens()},
		})
	}
	if p.breaker != nil {
		out = append(out, p.breaker.Stats())
	}
	if p.gate != nil {
		out = append(out, p.gate.Stats())
	}
	return out
}
