package telemetry

// NetStats is one network listener's counter row at snapshot time:
// connection lifecycle gauges plus per-frame-type traffic counters. The
// shape mirrors PolicyStats — a name plus generic counter maps — so
// telemetry does not import the server package; the server maintains
// padded atomic counters on its hot path (registration and counting are
// allocation-free) and materializes the maps only when a snapshot
// reader asks.
type NetStats struct {
	Server string `json:"server"`
	// Conns holds connection lifecycle counters: accepted, active,
	// closed, drain outcomes.
	Conns map[string]uint64 `json:"conns,omitempty"`
	// Frames holds per-frame-type counters, keyed "in.<kind>" and
	// "out.<kind>", plus totals and error/shed accounting.
	Frames map[string]uint64 `json:"frames,omitempty"`
}

// RegisterNetSource adds a network-listener counter provider: every
// snapshot calls fn and appends its rows, each naming its listener
// (NetStats.Server), to Snapshot.Net. fn runs on the snapshot reader's
// goroutine and must be internally synchronized (atomic counter loads
// suffice).
func (r *Registry) RegisterNetSource(fn func() []NetStats) {
	r.mu.Lock()
	r.net = append(r.net, fn)
	r.mu.Unlock()
}
