// Package obs is the unified observability subsystem: a process-local
// registry of named counters and gauges plus per-transaction phase timers
// that attribute latency to the stages that define Kamino-Tx's critical
// path (intent-log persist, in-place heap persist, commit-marker persist,
// asynchronous backup roll-forward, dependent-transaction stalls, dynamic
// backup misses).
//
// Every engine owns one Registry; the NVM simulator exports its device
// counters into it as gauges, and the benchmark harness aggregates the
// registries of the pools an experiment created into a per-phase breakdown
// table. A Hub lists a process's live registries under labels so one
// /metrics handler renders them all as Prometheus text (kaminod).
//
// Counters are lock-free (one atomic add); phase timers take one short
// mutex-protected histogram insert per observation. Callers cache the
// *Counter / *PhaseStat pointers at construction so the hot path never
// touches the registry maps.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kaminotx/internal/stats"
)

// Phase names one stage of a transaction's lifetime. The constants below
// are the vocabulary shared by every engine so breakdown tables line up
// across mechanisms; an engine records only the phases it actually has.
type Phase string

// Transaction phases, in critical-path order.
const (
	// PhaseDependentStall is time blocked acquiring an object lock held
	// by a prior transaction whose effects are not yet reconciled (the
	// paper's dependent transactions).
	PhaseDependentStall Phase = "dependent_stall"
	// PhaseCriticalCopy is data copied synchronously inside the critical
	// path: undo-log old values, CoW shadow creation, Kamino-Tx-Dynamic
	// backup-miss copies. The quantity Kamino-Tx exists to eliminate.
	PhaseCriticalCopy Phase = "critical_copy"
	// PhaseIntentPersist is the durable intent/log-record persist (the
	// Kamino-Tx intent log append, or CoW's pre-commit shadow flush).
	PhaseIntentPersist Phase = "intent_persist"
	// PhaseHeapPersist is the flush+fence of in-place main-heap writes at
	// commit.
	PhaseHeapPersist Phase = "heap_persist"
	// PhaseCommitPersist is the one-line commit-marker store.
	PhaseCommitPersist Phase = "commit_persist"
	// PhaseCopyBack is CoW's post-commit shadow-to-original apply.
	PhaseCopyBack Phase = "copy_back"
	// PhaseBackupSync is the applier's work rolling the backup forward
	// for one committed transaction (off the critical path).
	PhaseBackupSync Phase = "backup_sync"
	// PhaseBackupLag is the full commit-to-locks-released lag of the
	// asynchronous backup roll-forward: the window during which a
	// dependent transaction on the same objects would stall.
	PhaseBackupLag Phase = "backup_lag"

	// Recovery phases: the stages of a reopen (engine.Base.Reopen). They
	// tile the time from pool open to the first accepted transaction.

	// PhaseRecoveryRescan is the heap block-header walk rebuilding the
	// volatile free lists.
	PhaseRecoveryRescan Phase = "rescan"
	// PhaseRecoveryLogReplay is intent-log slot reconciliation: rolling
	// interrupted transactions back or forward.
	PhaseRecoveryLogReplay Phase = "log_replay"
	// PhaseRecoveryIndexAttach is the rebuild of volatile index state:
	// the dynamic-backend lookup table and the pbtree's walk.
	PhaseRecoveryIndexAttach Phase = "index_attach"
)

// phaseOrder fixes breakdown-table display order to critical-path order.
var phaseOrder = []Phase{
	PhaseDependentStall,
	PhaseCriticalCopy,
	PhaseIntentPersist,
	PhaseHeapPersist,
	PhaseCommitPersist,
	PhaseCopyBack,
	PhaseBackupSync,
	PhaseBackupLag,
	PhaseRecoveryRescan,
	PhaseRecoveryLogReplay,
	PhaseRecoveryIndexAttach,
}

// Counter is a monotonically increasing event counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// PhaseStat records the latency distribution of one phase. Safe for
// concurrent use.
type PhaseStat struct {
	mu   sync.Mutex
	hist stats.Histogram
}

// Observe records one phase duration.
func (p *PhaseStat) Observe(d time.Duration) {
	p.mu.Lock()
	p.hist.Record(d)
	p.mu.Unlock()
}

// Count returns the number of observations.
func (p *PhaseStat) Count() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hist.Count()
}

func (p *PhaseStat) snapshot() PhaseSnapshot {
	p.mu.Lock()
	h := p.hist
	p.mu.Unlock()
	return PhaseSnapshot{
		Count: h.Count(),
		Total: h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		Max:   h.Max(),
	}
}

// absorb merges other's observations into p.
func (p *PhaseStat) absorb(o *PhaseStat) {
	o.mu.Lock()
	h := o.hist
	o.mu.Unlock()
	p.mu.Lock()
	p.hist.Merge(&h)
	p.mu.Unlock()
}

// Registry is a named collection of counters, gauges and phase timers.
type Registry struct {
	name string

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]func() uint64
	phases   map[Phase]*PhaseStat
}

// New creates an empty registry. The name identifies its owner (an engine
// or replica) in snapshots and breakdown tables.
func New(name string) *Registry {
	return &Registry{
		name:     name,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]func() uint64),
		phases:   make(map[Phase]*PhaseStat),
	}
}

// Name returns the registry's owner label.
func (r *Registry) Name() string { return r.name }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers a read-on-snapshot value source (e.g. an NVM region's
// cumulative device counters). Re-registering a name replaces it.
func (r *Registry) Gauge(name string, fn func() uint64) {
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// Phase returns the timer for phase p, creating it on first use.
func (r *Registry) Phase(p Phase) *PhaseStat {
	r.mu.RLock()
	ps := r.phases[p]
	r.mu.RUnlock()
	if ps != nil {
		return ps
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ps = r.phases[p]; ps == nil {
		ps = &PhaseStat{}
		r.phases[p] = ps
	}
	return ps
}

// Absorb folds other's current state into r: counters add, gauges are
// sampled and added as counters (they are cumulative device counts), phase
// histograms merge. Used by the benchmark harness to aggregate the pools
// an experiment created, per engine. Absorb is additive, not idempotent —
// absorbing the same registry twice doubles its counts, so callers that
// may revisit a source (bench.obsAgg) must deduplicate.
func (r *Registry) Absorb(other *Registry) {
	other.mu.RLock()
	counters := make(map[string]uint64, len(other.counters))
	for name, c := range other.counters {
		counters[name] = c.Load()
	}
	gauges := make(map[string]func() uint64, len(other.gauges))
	for name, fn := range other.gauges {
		gauges[name] = fn
	}
	phases := make(map[Phase]*PhaseStat, len(other.phases))
	for p, ps := range other.phases {
		phases[p] = ps
	}
	other.mu.RUnlock()
	for name, v := range counters {
		r.Counter(name).Add(v)
	}
	for name, fn := range gauges {
		r.Counter(name).Add(fn())
	}
	for p, ps := range phases {
		r.Phase(p).absorb(ps)
	}
}

// PhaseSnapshot summarizes one phase's latency distribution. Durations
// marshal as integer nanoseconds.
type PhaseSnapshot struct {
	Count uint64        `json:"count"`
	Total time.Duration `json:"total_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Snapshot is a point-in-time copy of a registry, JSON-serializable.
// encoding/json writes map keys in sorted order, so marshaling a Snapshot
// is byte-stable; code that iterates the maps directly must use the
// Sorted* helpers to stay deterministic (benchmark artifacts are diffed
// byte-for-byte).
type Snapshot struct {
	Name     string                  `json:"name"`
	Counters map[string]uint64       `json:"counters"`
	Gauges   map[string]uint64       `json:"gauges,omitempty"`
	Phases   map[Phase]PhaseSnapshot `json:"phases"`
}

// SortedCounterNames returns the snapshot's counter names in sorted order.
func (s Snapshot) SortedCounterNames() []string { return sortedKeys(s.Counters) }

// SortedGaugeNames returns the snapshot's gauge names in sorted order.
func (s Snapshot) SortedGaugeNames() []string { return sortedKeys(s.Gauges) }

// SortedPhases returns the snapshot's phases in critical-path order, with
// any custom phases following alphabetically — the same order
// WriteBreakdown prints.
func (s Snapshot) SortedPhases() []Phase {
	out := make([]Phase, 0, len(s.Phases))
	for _, p := range phaseOrder {
		if _, ok := s.Phases[p]; ok {
			out = append(out, p)
		}
	}
	var extra []Phase
	for p := range s.Phases {
		if !inOrder(p) {
			extra = append(extra, p)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	return append(out, extra...)
}

func sortedKeys(m map[string]uint64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]func() uint64, len(r.gauges))
	for name, fn := range r.gauges {
		gauges[name] = fn
	}
	phases := make(map[Phase]*PhaseStat, len(r.phases))
	for p, ps := range r.phases {
		phases[p] = ps
	}
	r.mu.RUnlock()

	s := Snapshot{
		Name:     r.name,
		Counters: make(map[string]uint64, len(counters)),
		Phases:   make(map[Phase]PhaseSnapshot, len(phases)),
	}
	for name, c := range counters {
		s.Counters[name] = c.Load()
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]uint64, len(gauges))
		for name, fn := range gauges {
			s.Gauges[name] = fn()
		}
	}
	for p, ps := range phases {
		s.Phases[p] = ps.snapshot()
	}
	return s
}

// WriteBreakdown formats the snapshot as the per-phase breakdown table the
// benchmark harness prints after each experiment.
func (s Snapshot) WriteBreakdown(w io.Writer) {
	fmt.Fprintf(w, "[%s]\n", s.Name)
	any := false
	for _, p := range phaseOrder {
		ps, ok := s.Phases[p]
		if !ok || ps.Count == 0 {
			continue
		}
		if !any {
			fmt.Fprintf(w, "  %-16s %10s %10s %10s %10s %12s\n",
				"phase", "count", "mean", "p50", "p99", "total")
			any = true
		}
		fmt.Fprintf(w, "  %-16s %10d %10s %10s %10s %12s\n",
			p, ps.Count, fmtDur(ps.Mean), fmtDur(ps.P50), fmtDur(ps.P99), fmtDur(ps.Total))
	}
	// Phases outside the canonical order (custom ones) follow, sorted.
	var extra []Phase
	for p := range s.Phases {
		if !inOrder(p) && s.Phases[p].Count > 0 {
			extra = append(extra, p)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	for _, p := range extra {
		ps := s.Phases[p]
		fmt.Fprintf(w, "  %-16s %10d %10s %10s %10s %12s\n",
			p, ps.Count, fmtDur(ps.Mean), fmtDur(ps.P50), fmtDur(ps.P99), fmtDur(ps.Total))
	}
	writeKVs(w, "counters", s.Counters)
	writeKVs(w, "gauges", s.Gauges)
}

func inOrder(p Phase) bool {
	for _, q := range phaseOrder {
		if p == q {
			return true
		}
	}
	return false
}

// writeKVs prints name=value pairs sorted by name, wrapped to keep lines
// readable.
func writeKVs(w io.Writer, label string, kvs map[string]uint64) {
	if len(kvs) == 0 {
		return
	}
	names := make([]string, 0, len(kvs))
	for name := range kvs {
		names = append(names, name)
	}
	sort.Strings(names)
	line := "  " + label + ":"
	for _, name := range names {
		kv := fmt.Sprintf(" %s=%d", name, kvs[name])
		if len(line)+len(kv) > 100 {
			fmt.Fprintln(w, line)
			line = "    "
		}
		line += kv
	}
	fmt.Fprintln(w, line)
}

func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Nanosecond).String()
}
