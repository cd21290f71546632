package resilience

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Manager owns the signal plumbing for a set of policies: it installs
// the unified stall feed (one clock for timeout-path and watchdog
// stalls), fans every event into the policies' breaker windows, runs
// the control loop that samples outstanding-waiter telemetry into
// breaker windows and gate pressure, and registers each policy's state
// with a telemetry registry so /debug/semlock shows breaker states,
// budget levels, and shed counts.
type Manager struct {
	interval time.Duration
	reg      *telemetry.Registry
	feed     *telemetry.StallFeed

	mu       sync.Mutex
	policies []*Policy
	prev     func(core.StallEvent)
	stop     chan struct{}
	done     chan struct{}
}

// NewManager creates a manager sampling waiter telemetry every
// interval (default 1ms). reg may be nil to skip telemetry
// registration.
func NewManager(reg *telemetry.Registry, interval time.Duration) *Manager {
	if interval <= 0 {
		interval = time.Millisecond
	}
	return &Manager{
		interval: interval,
		reg:      reg,
		feed:     telemetry.NewStallFeed(time.Second, 8),
	}
}

// Add registers a policy: its breaker joins the stall fan-out and its
// state rows join the registry's snapshots.
func (m *Manager) Add(p *Policy) {
	m.mu.Lock()
	m.policies = append(m.policies, p)
	m.mu.Unlock()
	if m.reg != nil {
		m.reg.RegisterPolicySource(p.Name(), p.Stats)
	}
}

// Start installs the stall feed as the process-wide observer and
// launches the control loop. Idempotent while running.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	m.prev = m.feed.Install()
	m.feed.Subscribe(m.fan)
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go m.loop(m.stop, m.done)
}

// fan delivers one stall event to every policy's breaker window.
func (m *Manager) fan(ev core.StallEvent) {
	m.mu.Lock()
	policies := m.policies
	m.mu.Unlock()
	for _, p := range policies {
		p.ObserveStall(ev)
	}
}

// loop samples the parked-waiter population — the same process counter
// telemetry snapshots export as waiters_outstanding — into every
// policy's breaker window and gate pressure hysteresis.
func (m *Manager) loop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			n := core.WaitersOutstanding()
			m.mu.Lock()
			policies := m.policies
			m.mu.Unlock()
			for _, p := range policies {
				p.ObserveWaiters(n)
			}
		}
	}
}

// Stop halts the control loop and restores the previously installed
// stall observer. Safe to call when never started.
func (m *Manager) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	prev := m.prev
	m.stop, m.done, m.prev = nil, nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
	core.SetStallObserver(prev)
}

// Unregister removes every policy's telemetry registration (used by
// benchmarks that build and tear down managers repeatedly against the
// shared Default registry).
func (m *Manager) Unregister() {
	if m.reg == nil {
		return
	}
	m.mu.Lock()
	policies := m.policies
	m.mu.Unlock()
	for _, p := range policies {
		m.reg.UnregisterPolicySource(p.Name())
	}
}

// Stats returns every registered policy's current telemetry rows.
func (m *Manager) Stats() []telemetry.PolicyStats {
	m.mu.Lock()
	policies := m.policies
	m.mu.Unlock()
	var out []telemetry.PolicyStats
	for _, p := range policies {
		out = append(out, p.Stats()...)
	}
	return out
}
