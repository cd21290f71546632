package resilience

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Manager owns the signal plumbing for a set of policies: it installs
// the unified stall feed (one clock for timeout-path and watchdog
// stalls), fans every event into the policies' breakers, and registers
// each policy's state with a telemetry registry so /debug/semlock shows
// breaker states and stall counts.
type Manager struct {
	reg *telemetry.Registry

	mu       sync.Mutex
	policies []*Policy
	running  bool
	prev     func(core.StallEvent)
}

// NewManager creates a manager. reg may be nil to skip telemetry
// registration.
func NewManager(reg *telemetry.Registry) *Manager {
	return &Manager{reg: reg}
}

// Add registers a policy: its breaker joins the stall fan-out and its
// state rows join the registry's snapshots.
func (m *Manager) Add(p *Policy) {
	m.mu.Lock()
	m.policies = append(m.policies, p)
	m.mu.Unlock()
	if m.reg != nil {
		m.reg.RegisterPolicySource(p.Stats)
	}
}

// Start installs a fresh stall feed as the process-wide observer, fanned
// out to every policy. Idempotent while running.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		return
	}
	feed := telemetry.NewStallFeed(time.Second, 8)
	m.prev = feed.Install()
	feed.Subscribe(m.fan)
	m.running = true
}

// fan delivers one stall event to every policy's breaker.
func (m *Manager) fan(ev core.StallEvent) {
	m.mu.Lock()
	policies := m.policies
	m.mu.Unlock()
	for _, p := range policies {
		p.ObserveStall(ev)
	}
}

// Stop restores the previously installed stall observer. Safe to call
// when never started.
func (m *Manager) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.running {
		return
	}
	core.SetStallObserver(m.prev)
	m.running, m.prev = false, nil
}
