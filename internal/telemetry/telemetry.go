// Package telemetry is the observability layer of the semantic-lock
// runtime: an always-on, allocation-free view of where acquisitions go
// under contention. The counters themselves live inside internal/core —
// per-mechanism padded cells maintained on the acquisition paths
// (fast-path vs slow-path, batch vs single, block events, cumulative
// wait nanos, stalls) plus process-wide section abort/panic counters —
// so registering an instance here costs nothing on the hot path; this
// package only aggregates atomic snapshots of counters the runtime
// maintains anyway, grouped by the application-level name and ADT class
// the instances were registered under.
//
// Exporters: Snapshot for programmatic use, Publish for expvar
// (/debug/vars), and Handler for a standalone JSON endpoint. cmd/gossipd
// wires all of them behind its -debug-addr flag.
package telemetry

import (
	"encoding/json"
	"expvar"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// GroupStats is the aggregated acquisition statistics of one registered
// group of instances sharing an ADT class: the sums of the instances'
// core.LockStats plus their outstanding holder counts.
type GroupStats struct {
	Group     string `json:"group"`
	Class     string `json:"class"`
	Instances int    `json:"instances"`
	FastPath  uint64 `json:"fast_path"`
	Slow      uint64 `json:"slow"`
	Waits     uint64 `json:"waits"`
	Batches   uint64 `json:"batches"`
	Stalls    uint64 `json:"stalls"`
	// WaitNanos is cumulative measured blocking time; zero unless
	// core.SetWaitTiming(true) was on while waiters settled (see
	// core.LockStats.WaitNanos).
	WaitNanos int64 `json:"wait_nanos"`
	// OutstandingHolds is the instances' total live holder count at
	// snapshot time — nonzero while sections are executing, and a leak
	// indicator once a workload has drained (cf. Semantic.CheckQuiesced).
	OutstandingHolds int64 `json:"outstanding_holds"`
	// OptimisticHits / OptimisticRetries split the instances' completed
	// optimistic attempts (a core.Snapshot, bare or inside
	// core.Txn.TryOptimistic) into validated
	// lock-free commits and discarded runs that re-ran through the
	// pessimistic fallback; each retry wasted one body execution.
	// OptimisticRefusals counts attempts turned away at observation time
	// before any body ran because a conflicting holder was visible;
	// cheap, and deliberately excluded from the retry count (see
	// core.LockStats.OptimisticRefusals).
	OptimisticHits     uint64 `json:"optimistic_hits"`
	OptimisticRetries  uint64 `json:"optimistic_retries"`
	OptimisticRefusals uint64 `json:"optimistic_refusals"`
}

// PolicyStats is one resilience-policy component's state at snapshot
// time: a breaker's state machine position and windowed stall rate, a
// policy's run and stall counts. The shape is deliberately generic
// (string state + counter/rate maps) so telemetry does not import the
// resilience package; sources register the concrete values via
// RegisterPolicySource.
type PolicyStats struct {
	Policy   string             `json:"policy"`
	Kind     string             `json:"kind"`            // "policy" | "breaker"
	State    string             `json:"state,omitempty"` // state-machine position, when the kind has one
	Counters map[string]uint64  `json:"counters,omitempty"`
	Rates    map[string]float64 `json:"rates,omitempty"`
}

// Snapshot is one atomic-per-counter view of the runtime: per-group
// aggregates plus the process-wide counters (parked-waiter population,
// panics recovered by section epilogues, section aborts) and any
// registered resilience-policy state. Counters are loaded individually
// without stopping the world, so a snapshot taken mid-workload is
// internally consistent per counter, not across counters.
type Snapshot struct {
	Groups                 []GroupStats  `json:"groups"`
	Policies               []PolicyStats `json:"policies,omitempty"`
	Net                    []NetStats    `json:"net,omitempty"`
	WaitersOutstanding     int64         `json:"waiters_outstanding"`
	SectionPanicsRecovered uint64        `json:"section_panics_recovered"`
	SectionAborts          uint64        `json:"section_aborts"`
}

// group is one registered instance source.
type group struct {
	name     string
	class    string
	provider func() []*core.Semantic
}

// Registry maps application-level groups of Semantic instances to
// snapshot rows. Registration is cheap (it records the provider,
// nothing more); all cost is on the snapshot reader.
// A Registry is safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	groups   []*group
	policies []func() []PolicyStats
	net      []func() []NetStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Default is the process-wide registry that Publish-based exporters
// (cmd/gossipd -debug-addr) read from.
var Default = NewRegistry()

// RegisterProvider adds an instance source under (group, class): every
// snapshot calls provider for the current instance list, and sources
// registered under the same names accumulate into one row. The
// provider must be safe to call from the snapshot reader's goroutine —
// if the application mutates its instance collection concurrently (as
// gossip.Ours.Sems does during membership churn), snapshot only during
// quiescence or have the provider do its own synchronization.
func (r *Registry) RegisterProvider(groupName, class string, provider func() []*core.Semantic) {
	g := &group{name: groupName, class: class, provider: provider}
	r.mu.Lock()
	r.groups = append(r.groups, g)
	r.mu.Unlock()
}

// RegisterPolicySource adds a resilience-policy state provider: every
// snapshot calls fn and appends its rows, each naming its policy
// (PolicyStats.Policy), to Snapshot.Policies. Like instance providers,
// fn runs on the snapshot reader's goroutine and must be internally
// synchronized.
func (r *Registry) RegisterPolicySource(fn func() []PolicyStats) {
	r.mu.Lock()
	r.policies = append(r.policies, fn)
	r.mu.Unlock()
}

// Snapshot aggregates the current counter values into one Snapshot.
// Rows are sorted by (group, class).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	groups := append([]*group(nil), r.groups...)
	policies := append([]func() []PolicyStats(nil), r.policies...)
	netSources := append([]func() []NetStats(nil), r.net...)
	r.mu.Unlock()

	type key struct{ group, class string }
	rows := make(map[key]*GroupStats)
	order := make([]key, 0, len(groups))
	for _, g := range groups {
		k := key{g.name, g.class}
		row, ok := rows[k]
		if !ok {
			row = &GroupStats{Group: g.name, Class: g.class}
			rows[k] = row
			order = append(order, k)
		}
		for _, s := range g.provider() {
			if s == nil {
				continue
			}
			st := s.Stats()
			row.Instances++
			row.FastPath += st.FastPath
			row.Slow += st.Slow
			row.Waits += st.Waits
			row.Batches += st.Batches
			row.Stalls += st.Stalls
			row.WaitNanos += st.WaitNanos
			row.OutstandingHolds += s.OutstandingHolds()
			row.OptimisticHits += st.OptimisticHits
			row.OptimisticRetries += st.OptimisticRetries
			row.OptimisticRefusals += st.OptimisticRefusals
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].group != order[j].group {
			return order[i].group < order[j].group
		}
		return order[i].class < order[j].class
	})
	out := Snapshot{
		Groups:                 make([]GroupStats, 0, len(order)),
		WaitersOutstanding:     core.WaitersOutstanding(),
		SectionPanicsRecovered: core.SectionPanicsRecovered(),
		SectionAborts:          core.SectionAborts(),
	}
	for _, k := range order {
		out.Groups = append(out.Groups, *rows[k])
	}
	for _, p := range policies {
		out.Policies = append(out.Policies, p()...)
	}
	for _, s := range netSources {
		out.Net = append(out.Net, s()...)
	}
	return out
}

// expvar registration is process-global and panics on duplicate names,
// so the "semlock" variable is created once and reads whichever
// registry Publish was called on most recently.
var (
	expvarOnce sync.Once
	expvarReg  atomic.Pointer[Registry]
)

// Publish exposes the registry's snapshot as the expvar variable
// "semlock" (visible at /debug/vars wherever expvar's handler is
// mounted). Safe to call repeatedly and from multiple registries; the
// variable reflects the most recently published registry.
func (r *Registry) Publish() {
	expvarReg.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("semlock", expvar.Func(func() any {
			if reg := expvarReg.Load(); reg != nil {
				return reg.Snapshot()
			}
			return Snapshot{}
		}))
	})
}

// Handler returns an http.Handler serving the registry's snapshot as
// indented JSON — the standalone form of the expvar export, mounted at
// /debug/semlock by cmd/gossipd.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}
