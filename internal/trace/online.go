package trace

import (
	"fmt"
	"strings"
	"sync"
)

// OnlineOptions configures an OnlineAuditor.
type OnlineOptions struct {
	// OnViolation, when set, is called for each violation as it is found,
	// from the emitting goroutine that completed the batch. It must not
	// emit trace events or call back into the auditor.
	OnViolation func(Violation)
}

// OnlineStats describes an auditor's progress and current state size.
type OnlineStats struct {
	// Events is the number of events processed so far.
	Events uint64
	// Violations counts every violation found (even those beyond the
	// retention cap).
	Violations uint64
	// Actors is the number of engine actors being tracked.
	Actors int
	// LiveTxs and LiveObjects count the per-transaction and per-object
	// entries currently held across all actors — the working set that
	// commit/abort/backup-sync retirement keeps bounded.
	LiveTxs     int
	LiveObjects int
}

// maxRetainedViolations caps the violations kept in memory; the counter
// keeps counting past it.
const maxRetainedViolations = 4096

// OnlineAuditor checks the persist-order invariants incrementally, as
// events are recorded, instead of replaying a ring after the run. It is the
// Recorder's sink: every event, in emission order, checked in batches by
// whichever emitting goroutine fills one, so it blocks nothing and drops
// nothing. Per-transaction state retires at commit/abort and per-object
// state at backup-sync, so memory stays bounded on arbitrarily long runs.
// Unlike AuditAll over a recorded slice it never misses events to ring
// wrap-around.
type OnlineAuditor struct {
	rec  *Recorder
	opts OnlineOptions

	// mu guards everything below: batches arrive under the recorder's lock,
	// one at a time, but Stats, Violations and Err read from any goroutine.
	mu     sync.Mutex
	events uint64
	nviol  uint64

	states map[string]*auditState // engine actor -> state
	route  map[string]*auditState // raw event actor -> state (nil: skip)

	// Two-entry routing cache: the stream alternates between an engine
	// actor and its region actors in tight runs, so most events resolve
	// without the route map lookup. Actor strings are interned by their
	// tracers, making the equality checks pointer comparisons.
	cActor [2]string
	cState [2]*auditState
	cOK    [2]bool

	violations []Violation
}

// AttachOnline installs an online auditor as rec's sink; it audits the
// events emitted from now on. Exactly one sink can be attached to a
// recorder at a time; attaching replaces any previous sink. Call Close to
// detach.
func AttachOnline(rec *Recorder, opts OnlineOptions) *OnlineAuditor {
	a := newOnlineAuditor(opts)
	a.rec = rec
	rec.setSink(a.processBatch)
	return a
}

// newOnlineAuditor builds an auditor attached to no recorder: AttachOnline
// attaches it, AuditAll feeds it a slice directly.
func newOnlineAuditor(opts OnlineOptions) *OnlineAuditor {
	return &OnlineAuditor{
		opts:   opts,
		states: make(map[string]*auditState),
		route:  make(map[string]*auditState),
	}
}

// processBatch feeds one delivered batch — a view into the ring, valid only
// until it returns — through the state machines.
func (a *OnlineAuditor) processBatch(batch []Event) {
	a.mu.Lock()
	for i := range batch {
		e := &batch[i]
		// Shed the event classes no rule consumes before touching the
		// routing cache.
		switch e.Kind {
		case KindSpan, KindChainForward, KindChainApply, KindChainBatch, KindChainAck, KindReqTx:
			continue
		}
		var st *auditState
		switch {
		case a.cOK[0] && e.Actor == a.cActor[0]:
			st = a.cState[0]
		case a.cOK[1] && e.Actor == a.cActor[1]:
			st = a.cState[1]
		default:
			var hit bool
			if st, hit = a.route[e.Actor]; !hit {
				st = a.resolveLocked(e.Actor)
			}
			a.cActor[1], a.cState[1], a.cOK[1] = a.cActor[0], a.cState[0], a.cOK[0]
			a.cActor[0], a.cState[0], a.cOK[0] = e.Actor, st, true
		}
		if st != nil {
			st.step(e, a.addViolation)
		}
	}
	a.events += uint64(len(batch))
	a.mu.Unlock()
}

// resolveLocked builds the routing entry for a new actor label: device
// actors ("kamino#1/log") share their engine's state; actors whose
// policy checks nothing route to nil and cost one map hit thereafter.
func (a *OnlineAuditor) resolveLocked(actor string) *auditState {
	engine := actor
	if i := strings.LastIndexByte(actor, '/'); i >= 0 {
		engine = actor[:i]
	}
	var st *auditState
	if p := policyFor(engine); p.checksAnything() {
		st = a.states[engine]
		if st == nil {
			st = newAuditState(p)
			a.states[engine] = st
		}
	}
	a.route[actor] = st
	return st
}

// addViolation records one breach (a.mu held).
func (a *OnlineAuditor) addViolation(e *Event, rule, msg string) {
	v := Violation{Seq: e.Seq, Rule: rule, TxID: e.TxID, Obj: e.Obj, Msg: msg}
	// Device-rule breaches carry the region actor; report the engine.
	v.Actor = e.Actor
	if i := strings.LastIndexByte(v.Actor, '/'); i >= 0 {
		v.Actor = v.Actor[:i]
	}
	a.nviol++
	if len(a.violations) < maxRetainedViolations {
		a.violations = append(a.violations, v)
	}
	if a.opts.OnViolation != nil {
		a.opts.OnViolation(v)
	}
}

// Flush audits the recorder's partially filled batch: when it returns,
// every event emitted before the call has been checked. Use it to make
// "caught live" assertions deterministic mid-run.
func (a *OnlineAuditor) Flush() { a.rec.flushSink() }

// Violations returns a copy of the violations retained so far (capped at
// maxRetainedViolations; Stats().Violations counts all of them).
func (a *OnlineAuditor) Violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Violation, len(a.violations))
	copy(out, a.violations)
	return out
}

// Err returns nil if no violation has been found, or an error describing
// the first one.
func (a *OnlineAuditor) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.violations) == 0 {
		return nil
	}
	return fmt.Errorf("trace: online audit: %d violation(s), first: %s", a.nviol, a.violations[0])
}

// Stats reports progress and the size of the retained working set.
func (a *OnlineAuditor) Stats() OnlineStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := OnlineStats{
		Events:     a.events,
		Violations: a.nviol,
		Actors:     len(a.states),
	}
	for _, s := range a.states {
		st.LiveTxs += len(s.known)
		st.LiveObjects += len(s.dirtyBy) + len(s.fresh)
	}
	return st
}

// Close detaches the auditor from the recorder, audits everything
// already emitted, and returns the retained violations. The recorder
// remains usable (un-sinked) afterwards.
func (a *OnlineAuditor) Close() []Violation {
	a.rec.setSink(nil) // flushes the pending batch to us first
	return a.Violations()
}
