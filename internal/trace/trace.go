// Package trace is a low-overhead structured event recorder for the
// Kamino-Tx stack. Components emit events into a shared bounded ring
// buffer: the NVM simulator reports device-level writes, flushes, fences
// and crashes; engines report transaction lifecycle steps (begin,
// lock-acquire, intent-append, in-place write, commit-marker,
// backup-sync, abort/rollback); chain replicas report protocol hops
// (forward, apply, ack) named by the record's sequence number.
//
// The stream is the input to two consumers: the exporters (JSONL and
// Chrome trace_event JSON, see export.go) and the auditor (audit.go),
// which replays events and mechanically checks the paper's persist-order
// invariants.
//
// Tracing is opt-in per component via a *Tracer handle. All Tracer
// methods are nil-receiver safe, so an uninstrumented run pays exactly
// one nil/atomic pointer check per would-be event and nothing else.
package trace

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an event.
type Kind uint8

// Event kinds. Device kinds come from internal/nvm hooks; Tx kinds from
// the engines; Chain kinds from chain replicas.
const (
	// KindWrite is a store into a region's volatile view (Write, Zero,
	// Store32/64, Copy destination).
	KindWrite Kind = iota
	// KindFlush models CLWB/CLFLUSHOPT over [Off, Off+Len).
	KindFlush
	// KindFence models SFENCE: all previously flushed lines durable.
	KindFence
	// KindCrash is a full power failure of a region.
	KindCrash
	// KindCrashPartial is a power failure where flushed-but-unfenced
	// lines persist nondeterministically.
	KindCrashPartial

	// KindTxBegin opens a transaction.
	KindTxBegin
	// KindLockAcquire reports a per-object lock acquisition by a tx.
	KindLockAcquire
	// KindIntentAppend reports a durably persisted intent-log entry for
	// Obj; Off/Len give the entry's byte range in the log region, Op the
	// logged operation (write/alloc/free).
	KindIntentAppend
	// KindInPlaceWrite reports a store into the main heap at Obj.
	KindInPlaceWrite
	// KindCommitMarker reports the slot-state transition to committed.
	KindCommitMarker
	// KindBackupSync reports that Obj's backup copy was brought in sync
	// with main (applier copy-back, or a dynamic on-demand copy).
	KindBackupSync
	// KindAbort reports a transaction abort.
	KindAbort
	// KindRollback reports Obj restored from its consistent copy.
	KindRollback
	// KindSpan is a timed phase interval (Phase from the obs
	// vocabulary, Dur its length, ending at At).
	KindSpan

	// KindChainForward reports an op sent to the successor.
	KindChainForward
	// KindChainApply reports an op executed at a replica.
	KindChainApply
	// KindChainBatch reports a batch forwarded as one message
	// and one durable queue append (Obj is the batch's last sequence
	// number, Len the operation count).
	KindChainBatch
	// KindChainAck reports a tail acknowledgment (sent at the tail,
	// received at the head).
	KindChainAck

	// KindReqTx links a service request's end-to-end trace id (Trace) to
	// the engine transaction that executed it (TxID), joining the
	// request timeline to the engine's TxID-keyed events.
	KindReqTx
)

var kindNames = [...]string{
	KindWrite:        "write",
	KindFlush:        "flush",
	KindFence:        "fence",
	KindCrash:        "crash",
	KindCrashPartial: "crash_partial",
	KindTxBegin:      "tx_begin",
	KindLockAcquire:  "lock_acquire",
	KindIntentAppend: "intent_append",
	KindInPlaceWrite: "inplace_write",
	KindCommitMarker: "commit_marker",
	KindBackupSync:   "backup_sync",
	KindAbort:        "abort",
	KindRollback:     "rollback",
	KindSpan:         "span",
	KindChainForward: "chain_forward",
	KindChainApply:   "chain_apply",
	KindChainBatch:   "chain_batch",
	KindChainAck:     "chain_ack",
	KindReqTx:        "req_tx",
}

// String names the kind as it appears in exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalJSON encodes the kind by name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a kind name back to its value (tooling that
// round-trips exported events).
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range kindNames {
		if name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", s)
}

// Event is one recorded occurrence. Fields beyond Seq/At/Kind/Actor are
// kind-dependent and zero when unused.
type Event struct {
	// Seq is the global emission order (1-based, assigned by the
	// recorder).
	Seq uint64 `json:"seq"`
	// At is nanoseconds since the recorder was created.
	At int64 `json:"at_ns"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Actor identifies the emitter: an engine instance ("kamino#1"),
	// one of its regions ("kamino#1/log"), or a chain replica
	// ("chain/r2").
	Actor string `json:"actor"`
	// TxID is the engine transaction id (tx lifecycle kinds).
	TxID uint64 `json:"txid,omitempty"`
	// Trace is a served request's id, minted by the server (its request
	// spans and KindReqTx).
	Trace uint64 `json:"trace,omitempty"`
	// Obj is the heap object involved (tx kinds), or the chain sequence
	// number (chain kinds).
	Obj uint64 `json:"obj,omitempty"`
	// Off and Len give the affected byte range within the actor's
	// region (device kinds, intent/in-place ranges).
	Off int `json:"off,omitempty"`
	Len int `json:"len,omitempty"`
	// Phase is the obs phase name (KindSpan) or the logged op kind
	// (KindIntentAppend: "write", "alloc", "free").
	Phase string `json:"phase,omitempty"`
	// Dur is the span length in nanoseconds (KindSpan); the span covers
	// [At-Dur, At].
	Dur int64 `json:"dur_ns,omitempty"`
}

// Recorder is a bounded ring buffer of events shared by every traced
// component of one run. When the buffer wraps, the oldest events are
// dropped (the recorder keeps the most recent Capacity events) and
// Dropped counts the loss.
type Recorder struct {
	start    time.Time
	capacity int
	actorSeq atomic.Uint64

	mu    sync.Mutex
	buf   []Event
	total uint64

	// now is the cached coarse timestamp: the wall clock is read only
	// every clockEvery events (reading it dominates the per-event cost
	// otherwise), so At advances in small steps. clockSkip counts events
	// since the last real read.
	now       int64
	clockSkip int

	// sink, when set, observes every event in emission order. It runs in
	// the emitting goroutine, under mu, once sinkBatch events have
	// accumulated, and is handed views into the ring itself — no copy and no
	// hand-off per event. sinkMark is the high-water mark: events with Seq
	// in (sinkMark, total] have not been offered yet.
	sink     func([]Event)
	sinkMark uint64
}

// clockEvery bounds timestamp staleness: one wall-clock read per this
// many events. Event At values stay monotonically non-decreasing and
// dense bursts (which is when the cache matters) share timestamps a few
// microseconds stale at worst.
const clockEvery = 16

// sinkBatch bounds how many events accumulate before the sink is invoked;
// small enough that a violation surfaces promptly, large enough that
// hot-path emitters rarely pay the call.
const sinkBatch = 256

// NewRecorder builds a recorder keeping the last capacity events
// (minimum 1024; 0 selects the 256Ki default).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1 << 18
	}
	if capacity < 1024 {
		capacity = 1024
	}
	return &Recorder{
		start:    time.Now(),
		capacity: capacity,
		buf:      make([]Event, 0, capacity),
	}
}

// emit appends one event, stamping Seq and At. Tracer methods call it with
// a stack-allocated event so the ~100-byte struct is copied exactly once
// (into its ring slot) instead of through every call layer.
//
// The body is deliberately a straight-line append: the engines persist
// in strict mode (every device write chased by its flush), so same-kind
// runs that any merge scheme could collapse almost never form — an
// earlier contiguity-coalescing stage measured under 4% volume reduction
// on the fig12 stream while charging every event for its slot scans.
// At ~20-40 events per transaction, a nanosecond here is a measurable
// fraction of the audited-run overhead budget.
func (r *Recorder) emit(e *Event) {
	r.mu.Lock()
	// Reading the wall clock costs more than the rest of this function,
	// so the timestamp is refreshed once per clockEvery events.
	if r.clockSkip == 0 {
		r.now = time.Since(r.start).Nanoseconds()
		r.clockSkip = clockEvery
	}
	r.clockSkip--
	r.total++
	e.Seq = r.total
	e.At = r.now
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, *e)
	} else {
		r.buf[int((r.total-1)%uint64(r.capacity))] = *e
	}
	if r.sink != nil && r.total-r.sinkMark >= sinkBatch {
		r.flushSinkLocked()
	}
	r.mu.Unlock()
}

// flushSinkLocked offers the sink everything emitted since the last offer.
// Called with r.mu held.
//
// Delivery is zero-copy: the undelivered range (sinkMark, total] is handed
// over as one or two views directly into the ring. That is safe because the
// sink consumes the batch before returning, still under r.mu, so no emitter
// can advance the ring under it, and the range never exceeds the ring: it is
// flushed at sinkBatch events and capacity is at least 1024. The sink
// sees the unfiltered stream; consumers that care (the online auditor) skip
// irrelevant events in a few nanoseconds, cheaper than a filter call plus a
// copy per event in the emission path.
func (r *Recorder) flushSinkLocked() {
	mark, n := r.sinkMark, int(r.total-r.sinkMark)
	if r.sink == nil || n <= 0 {
		return
	}
	r.sinkMark = r.total
	i := int(mark % uint64(r.capacity))
	if i+n <= len(r.buf) {
		r.sink(r.buf[i : i+n])
		return
	}
	r.sink(r.buf[i:])
	r.sink(r.buf[:n-(len(r.buf)-i)])
}

// setSink installs (or with nil removes) a consumer that observes every
// subsequent event, in emission order, in batches. Events pending for the
// previous sink are delivered to it first, so detaching with setSink(nil)
// loses nothing. The sink runs under the recorder's lock: it must be quick
// and must not call back into the recorder.
func (r *Recorder) setSink(fn func([]Event)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushSinkLocked()
	r.sink = fn
	r.sinkMark = r.total
}

// flushSink delivers the partially filled batch to the sink (end of a run,
// or a test that wants prompt auditing).
func (r *Recorder) flushSink() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushSinkLocked()
}

// Events returns the retained events in emission order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if r.total <= uint64(r.capacity) {
		out = append(out, r.buf...)
		return out
	}
	head := int(r.total % uint64(r.capacity)) // oldest retained slot
	out = append(out, r.buf[head:]...)
	out = append(out, r.buf[:head]...)
	return out
}

// Total counts all events ever emitted.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped counts events lost to ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(r.capacity) {
		return 0
	}
	return r.total - uint64(r.capacity)
}

// NextActorID mints a recorder-unique id for actor labels ("kamino#3").
func (r *Recorder) NextActorID() uint64 { return r.actorSeq.Add(1) }

// Tracer returns an emission handle bound to one actor label.
func (r *Recorder) Tracer(actor string) *Tracer {
	return &Tracer{rec: r, actor: actor}
}

// Tracer stamps events with an actor label before recording them. A nil
// *Tracer is valid and discards everything, so call sites need no
// conditionals: `tr.CommitMarker(id)` on a nil tr is a single
// predictable branch.
type Tracer struct {
	rec   *Recorder
	actor string
}

// emit stamps the actor label and hands the event to the recorder by
// pointer; the Event composite literals in the methods below stay on the
// emitter's stack (BenchmarkEnabledTracer pins this at zero allocations).
func (t *Tracer) emit(e *Event) {
	if t == nil || t.rec == nil {
		return
	}
	e.Actor = t.actor
	t.rec.emit(e)
}

// Actor returns the tracer's label ("" for a nil tracer).
func (t *Tracer) Actor() string {
	if t == nil {
		return ""
	}
	return t.actor
}

// Enabled reports whether events will actually be recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.rec != nil }

// --- device-level emissions (internal/nvm hooks) ---

// DevWrite records a store into the region's volatile view.
func (t *Tracer) DevWrite(off, n int) {
	t.emit(&Event{Kind: KindWrite, Off: off, Len: n})
}

// DevFlush records a flush of [off, off+n).
func (t *Tracer) DevFlush(off, n int) {
	t.emit(&Event{Kind: KindFlush, Off: off, Len: n})
}

// DevFence records a persistence fence.
func (t *Tracer) DevFence() { t.emit(&Event{Kind: KindFence}) }

// DevCrash records a power failure; partial selects CrashPartial
// semantics (flushed-but-unfenced lines survive nondeterministically).
func (t *Tracer) DevCrash(partial bool) {
	k := KindCrash
	if partial {
		k = KindCrashPartial
	}
	t.emit(&Event{Kind: k})
}

// --- transaction lifecycle emissions (engines) ---

// TxBegin records a transaction start.
func (t *Tracer) TxBegin(txid uint64) { t.emit(&Event{Kind: KindTxBegin, TxID: txid}) }

// LockAcquire records obj's per-object lock granted to txid.
func (t *Tracer) LockAcquire(txid, obj uint64) {
	t.emit(&Event{Kind: KindLockAcquire, TxID: txid, Obj: obj})
}

// IntentAppend records a durably persisted intent entry for obj; off/n
// give the entry's range in the log region, op the logged operation
// ("write", "alloc", "free").
func (t *Tracer) IntentAppend(txid, obj uint64, off, n int, op string) {
	t.emit(&Event{Kind: KindIntentAppend, TxID: txid, Obj: obj, Off: off, Len: n, Phase: op})
}

// InPlaceWrite records a store into the main heap: obj is the object,
// off/n the absolute range in the main region.
func (t *Tracer) InPlaceWrite(txid, obj uint64, off, n int) {
	t.emit(&Event{Kind: KindInPlaceWrite, TxID: txid, Obj: obj, Off: off, Len: n})
}

// CommitMarker records the durable commit-state transition.
func (t *Tracer) CommitMarker(txid uint64) { t.emit(&Event{Kind: KindCommitMarker, TxID: txid}) }

// BackupSync records obj's backup copy reaching parity with main.
func (t *Tracer) BackupSync(txid, obj uint64) {
	t.emit(&Event{Kind: KindBackupSync, TxID: txid, Obj: obj})
}

// Abort records a transaction abort (after any rollbacks).
func (t *Tracer) Abort(txid uint64) { t.emit(&Event{Kind: KindAbort, TxID: txid}) }

// Rollback records obj restored from its consistent copy.
func (t *Tracer) Rollback(txid, obj uint64) {
	t.emit(&Event{Kind: KindRollback, TxID: txid, Obj: obj})
}

// Span records a timed phase (obs vocabulary) that ended now and lasted
// d. Zero-length spans are dropped.
func (t *Tracer) Span(phase string, txid uint64, d time.Duration) {
	if d <= 0 {
		return
	}
	t.emit(&Event{Kind: KindSpan, TxID: txid, Phase: phase, Dur: d.Nanoseconds()})
}

// SpanTrace records a timed phase keyed by an end-to-end trace id
// rather than an engine transaction id (service request phases: the
// Chrome export lanes trace-keyed spans by trace id, so every phase of
// one request lands on one timeline). Zero-length spans are dropped.
func (t *Tracer) SpanTrace(phase string, traceID uint64, d time.Duration) {
	if d <= 0 {
		return
	}
	t.emit(&Event{Kind: KindSpan, Trace: traceID, Phase: phase, Dur: d.Nanoseconds()})
}

// ReqLink records that the request traced as traceID was executed by
// engine transaction txid, joining the request timeline to the engine's
// TxID-keyed events.
func (t *Tracer) ReqLink(traceID, txid uint64) {
	t.emit(&Event{Kind: KindReqTx, Trace: traceID, TxID: txid})
}

// --- chain protocol emissions (internal/chain) ---

// ChainForward records seq sent downstream.
func (t *Tracer) ChainForward(seq uint64) {
	t.emit(&Event{Kind: KindChainForward, Obj: seq})
}

// ChainApply records seq executed locally.
func (t *Tracer) ChainApply(seq uint64) {
	t.emit(&Event{Kind: KindChainApply, Obj: seq})
}

// ChainAck records a tail acknowledgment for seq.
func (t *Tracer) ChainAck(seq uint64) {
	t.emit(&Event{Kind: KindChainAck, Obj: seq})
}

// ChainBatch records n operations (one or more) forwarded as one message and
// one durable queue append, ending at lastSeq. Per-op ChainForward events
// are still emitted, so the auditor and the trace tests see every
// operation; ChainBatch marks the batch boundaries themselves.
func (t *Tracer) ChainBatch(lastSeq uint64, n int) {
	t.emit(&Event{Kind: KindChainBatch, Obj: lastSeq, Len: n})
}
