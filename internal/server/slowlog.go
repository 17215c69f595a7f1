package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kaminotx/internal/transport"
)

// Phases is one request's server-side latency split in nanoseconds,
// indexed by transport.KVPhase: the phases tile the request's wall time
// (decode is the wire read preceding it; see transport.KVPhase for the
// semantics). It marshals as a JSON object keyed by the phase names.
type Phases [transport.KVPhaseCount]int64

// MarshalJSON writes the vector as {"decode": ns, "admission_wait": ns, ...}
// in phase order.
func (v Phases) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for ph, ns := range v {
		if ph > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, transport.KVPhase(ph).String())
		b = append(b, ':')
		b = strconv.AppendInt(b, ns, 10)
	}
	return append(b, '}'), nil
}

// A server's slow-request ring keeps the slowN slowest requests of the
// last slowWindow, so it shows recent tail behaviour, not startup artifacts.
const (
	slowN      = 32
	slowWindow = 10 * time.Minute
)

// SlowRecord is one retained slow request: everything needed to go from
// a tail-latency symptom to the phase that caused it and, when tracing
// was on, to the exact timeline in the Chrome export (via Trace).
type SlowRecord struct {
	// Trace is the id the server minted for the request's spans (0 when
	// the server is not tracing).
	Trace uint64 `json:"trace,omitempty"`
	// Tenant is the keyspace the request addressed.
	Tenant string `json:"tenant"`
	// Kind is the operation name (get, put, ...).
	Kind string `json:"kind"`
	// Key is the tenant-local key.
	Key uint64 `json:"key"`
	// Bytes is the put payload size.
	Bytes int `json:"bytes,omitempty"`
	// Batch is how many writes shared the engine transaction.
	Batch int `json:"batch,omitempty"`
	// Status is the response status string.
	Status string `json:"status"`
	// Start is when the request's server wall clock started (decode end).
	Start time.Time `json:"start"`
	// WallNs is the server-measured wall time: decode plus decode-end to
	// response-written.
	WallNs int64 `json:"wall_ns"`
	// Phases is the per-phase split of WallNs.
	Phases Phases `json:"phase_ns"`
}

// SlowLog is a bounded ring of the N slowest recent requests, kept
// sorted slowest-first. Insert is called for every completed request;
// the fast path is two atomic loads when the request is faster than the
// slowest-N floor, so keeping it always-on costs nothing at steady
// state. Records older than the window are evicted lazily so the ring
// reflects recent tail behaviour rather than startup artifacts.
type SlowLog struct {
	capacity int
	window   time.Duration
	floor    atomic.Int64 // min WallNs that can enter a full ring
	// floorUntil is when the oldest retained record leaves the window
	// (Unix ns): from then on the ring has room and the floor is void.
	floorUntil atomic.Int64

	mu   sync.Mutex
	recs []SlowRecord // sorted by WallNs descending
}

// NewSlowLog builds a ring keeping the capacity slowest requests seen in
// the last window.
func NewSlowLog(capacity int, window time.Duration) *SlowLog {
	return &SlowLog{capacity: capacity, window: window}
}

// Floor returns the wall time a request must exceed to enter the ring
// right now (0 while the ring has room, including once a retained record
// has aged out of the window).
func (l *SlowLog) Floor() int64 {
	floor := l.floor.Load()
	if time.Now().UnixNano() >= l.floorUntil.Load() {
		return 0
	}
	return floor
}

// Insert offers one completed request to the ring. The request's own
// start time stands in for the clock: a request that started after the
// oldest record expired always takes the locked path, which evicts.
func (l *SlowLog) Insert(r SlowRecord) {
	if r.WallNs <= l.floor.Load() && r.Start.UnixNano() < l.floorUntil.Load() {
		return // faster than everything retained, and the ring is full
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evictLocked(time.Now())
	i := sort.Search(len(l.recs), func(i int) bool { return l.recs[i].WallNs < r.WallNs })
	l.recs = append(l.recs, SlowRecord{})
	copy(l.recs[i+1:], l.recs[i:])
	l.recs[i] = r
	if len(l.recs) > l.capacity {
		l.recs = l.recs[:l.capacity]
	}
	l.setFloorLocked()
}

// evictLocked drops records that aged out of the window.
func (l *SlowLog) evictLocked(now time.Time) {
	cutoff := now.Add(-l.window)
	kept := l.recs[:0]
	for _, r := range l.recs {
		if r.Start.After(cutoff) {
			kept = append(kept, r)
		}
	}
	l.recs = kept
	l.setFloorLocked()
}

func (l *SlowLog) setFloorLocked() {
	if len(l.recs) < l.capacity {
		l.floor.Store(0)
		return
	}
	oldest := l.recs[0].Start
	for _, r := range l.recs[1:] {
		if r.Start.Before(oldest) {
			oldest = r.Start
		}
	}
	l.floorUntil.Store(oldest.Add(l.window).UnixNano())
	l.floor.Store(l.recs[len(l.recs)-1].WallNs)
}

// Snapshot returns the current records, slowest first.
func (l *SlowLog) Snapshot() []SlowRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evictLocked(time.Now())
	out := make([]SlowRecord, len(l.recs))
	copy(out, l.recs)
	return out
}

// slowDump is the /debug/requests JSON shape.
type slowDump struct {
	Capacity int          `json:"capacity"`
	WindowMs int64        `json:"window_ms"`
	FloorNs  int64        `json:"floor_ns"`
	Records  []SlowRecord `json:"records"`
}

// Handler serves the ring as JSON (mount at /debug/requests).
func (l *SlowLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(slowDump{
			Capacity: l.capacity,
			WindowMs: l.window.Milliseconds(),
			FloorNs:  l.Floor(),
			Records:  l.Snapshot(),
		})
	})
}
