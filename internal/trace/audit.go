// The auditor replays a recorded event stream and mechanically checks
// the three Kamino-Tx safety invariants (§3 of the paper):
//
//  1. intent-durable-before-store — the intent-log entry covering an
//     object must be durable (written, flushed, and fenced on the log
//     region) before the first in-place store to that object;
//  2. consistent-copy-exists — an object may be modified in place only
//     while a consistent copy of it exists (backup in sync, or the
//     object was freshly allocated this epoch and its alloc intent is
//     the copy);
//  3. dependent-blocked — a transaction must not acquire an object's
//     lock while a previous transaction's modification of it has not
//     yet been reconciled to the backup (or rolled back).
//
// The auditor is intentionally conservative where the stream is
// truncated: transactions whose TxBegin fell off the ring are skipped,
// and every Crash/CrashPartial resets all derived state (post-crash
// recovery runs before tracers are re-attached, so its repairs are not
// in the stream).
//
// One router, the OnlineAuditor's (online.go), maps events to each
// engine's state machine (auditState.step): attached to a recorder it
// checks events as they are emitted, and AuditAll below feeds it a
// recorded slice.
package trace

import (
	"fmt"
	"strings"
)

// lineSize mirrors nvm.LineSize (the package cannot import nvm — nvm
// imports trace for its device hooks).
const lineSize = 64

// Violation is one invariant breach found by the auditor.
type Violation struct {
	// Seq is the offending event's sequence number.
	Seq uint64
	// Rule names the broken invariant: "intent-not-durable",
	// "store-without-intent", "store-without-copy",
	// "dependent-not-blocked".
	Rule string
	// Actor is the engine instance audited.
	Actor string
	// TxID and Obj identify the offending transaction and object.
	TxID uint64
	Obj  uint64
	// Msg explains the breach.
	Msg string
}

// String renders the violation as one human-readable line.
func (v Violation) String() string {
	return fmt.Sprintf("seq=%d %s actor=%s tx=%d obj=%d: %s", v.Seq, v.Rule, v.Actor, v.TxID, v.Obj, v.Msg)
}

// policy selects which invariants apply to an engine actor. The nolog
// baseline is deliberately unsafe and checks nothing; undo, cow and
// in-place engines log intents but keep no backup; only the kamino
// engines promise an asynchronously reconciled copy.
type policy struct {
	// actor is the engine instance label ("kamino#1"). Its region
	// actors are derived by suffix ("kamino#1/log" etc).
	actor string
	// requireIntent enables rule 1 (intent durable before store) and
	// the intent-precedes-store check.
	requireIntent bool
	// requireBackup enables rules 2 and 3 (consistent copy /
	// dependent stall).
	requireBackup bool
}

// checksAnything reports whether the policy enables at least one rule
// (the router skips actors that check nothing).
func (p policy) checksAnything() bool { return p.requireIntent || p.requireBackup }

// policyFor derives the invariant set from an actor label minted by the
// pool ("<engine-name>#<n>").
func policyFor(actor string) policy {
	name := actor
	if i := strings.IndexByte(name, '#'); i >= 0 {
		name = name[:i]
	}
	p := policy{actor: actor}
	switch name {
	case "kamino", "kamino-dynamic":
		p.requireIntent = true
		p.requireBackup = true
	case "undo", "cow", "inplace":
		p.requireIntent = true
	}
	return p
}

// lineState tracks the persistence of one cache line relative to its
// last store. Durable lines carry no un-persisted store.
type lineState uint8

const (
	lineDurable lineState = iota // no un-persisted store
	lineDirty                    // stored, not yet flushed
	linePending                  // flushed, fence not yet issued
)

// auditState is the per-engine invariant state machine. Only the log
// region's line persistence is tracked — both intent rules query the
// log region and nothing else — and per-transaction state retires at
// commit/abort, so memory stays bounded for long online runs.
type auditState struct {
	p         policy
	logRegion string
	// logLines — persistence of the last store per log-region line,
	// indexed by line number (grown on demand; out-of-range lines are
	// durable). A dense slice instead of a map: line marking is the
	// auditor's hottest loop.
	logLines []lineState
	// touched — the non-durable lines, unordered, no duplicates; lets
	// fences sweep only what a fence can change and lets rangeDurable
	// short-circuit when everything is durable.
	touched []int
	// known transactions (TxBegin in the stream); events for unknown
	// txs are skipped so a wrapped ring cannot fabricate violations.
	known map[uint64]bool
	// intents[tx] — objects covered by a durable intent entry. Inner
	// maps are allocated on first IntentAppend, not at TxBegin:
	// read-only transactions never touch the log, and a map allocation
	// per transaction is pure GC churn at read-heavy event rates.
	intents map[uint64]map[uint64]bool
	// dirtyBy[obj] — tx whose in-place stores are not yet reconciled.
	dirtyBy map[uint64]uint64
	// fresh[obj] — allocated this epoch and not yet backed up: its
	// alloc intent is the consistent copy, so rules 2/3 are satisfied
	// without a BackupSync. Tracked only under requireBackup policies
	// (nothing queries it otherwise, and unbounded growth would defeat
	// the online auditor's memory bound).
	fresh map[uint64]bool
}

func newAuditState(p policy) *auditState {
	return &auditState{
		p:         p,
		logRegion: p.actor + "/log",
		known:     map[uint64]bool{},
		intents:   map[uint64]map[uint64]bool{},
		dirtyBy:   map[uint64]uint64{},
		fresh:     map[uint64]bool{},
	}
}

// reset drops all derived state (crash boundary).
func (s *auditState) reset() {
	for _, line := range s.touched {
		s.logLines[line] = lineDurable
	}
	s.touched = s.touched[:0]
	s.known = map[uint64]bool{}
	s.intents = map[uint64]map[uint64]bool{}
	s.dirtyBy = map[uint64]uint64{}
	s.fresh = map[uint64]bool{}
}

// markLine transitions one log line to dirty, growing the slice and
// registering the line as touched on a durable→dirty edge.
func (s *auditState) markLine(line int) {
	for line >= len(s.logLines) {
		s.logLines = append(s.logLines, lineDurable)
	}
	if s.logLines[line] == lineDurable {
		s.touched = append(s.touched, line)
	}
	s.logLines[line] = lineDirty
}

// rangeDurable reports whether every log-region line of [off, off+n) is
// durable, naming the first offending line otherwise.
func (s *auditState) rangeDurable(off, n int) (bool, int) {
	if len(s.touched) == 0 || n <= 0 {
		return true, 0
	}
	for line := off / lineSize; line <= (off+n-1)/lineSize; line++ {
		if line < len(s.logLines) && s.logLines[line] != lineDurable {
			return false, line
		}
	}
	return true, 0
}

// step feeds one event through the state machine, reporting violations
// through add. The caller routes only this engine's events here (the
// engine actor itself and its "<actor>/<region>" device actors).
func (s *auditState) step(e *Event, add func(e *Event, rule, msg string)) {
	switch e.Kind {
	case KindWrite:
		if e.Actor != s.logRegion {
			return
		}
		for line := e.Off / lineSize; line <= (e.Off+e.Len-1)/lineSize && e.Len > 0; line++ {
			s.markLine(line)
		}
	case KindFlush:
		if e.Actor != s.logRegion {
			return
		}
		for line := e.Off / lineSize; line <= (e.Off+e.Len-1)/lineSize && e.Len > 0; line++ {
			if line < len(s.logLines) && s.logLines[line] == lineDirty {
				s.logLines[line] = linePending
			}
		}
	case KindFence:
		if e.Actor != s.logRegion {
			return
		}
		// Sweep only the non-durable lines; pending ones become durable
		// and leave the touched set (swap-remove keeps it compact).
		for i := 0; i < len(s.touched); {
			line := s.touched[i]
			if s.logLines[line] == linePending {
				s.logLines[line] = lineDurable
				s.touched[i] = s.touched[len(s.touched)-1]
				s.touched = s.touched[:len(s.touched)-1]
				continue
			}
			i++
		}
	case KindCrash, KindCrashPartial:
		// After any power failure the volatile view reverts to
		// (a subset of) the durable image: content and durable
		// state coincide again, and recovery is not traced. A crash
		// event from any of the engine's regions resets everything.
		s.reset()

	case KindTxBegin:
		s.known[e.TxID] = true
	case KindIntentAppend:
		if !s.known[e.TxID] {
			return
		}
		m := s.intents[e.TxID]
		if m == nil {
			m = make(map[uint64]bool, 4)
			s.intents[e.TxID] = m
		}
		m[e.Obj] = true
		if e.Phase == "alloc" && s.p.requireBackup {
			s.fresh[e.Obj] = true
		}
		if s.p.requireIntent {
			if ok, line := s.rangeDurable(e.Off, e.Len); !ok {
				add(e, "intent-not-durable", fmt.Sprintf(
					"intent entry [%d,+%d) reported durable but log line %d was never fenced", e.Off, e.Len, line))
			}
		}
	case KindInPlaceWrite:
		if !s.known[e.TxID] {
			return
		}
		if s.p.requireIntent && !s.intents[e.TxID][e.Obj] {
			add(e, "store-without-intent",
				"in-place heap store before any durable intent entry for the object")
		}
		if s.p.requireBackup {
			if by := s.dirtyBy[e.Obj]; by != 0 && by != e.TxID && !s.fresh[e.Obj] {
				add(e, "store-without-copy", fmt.Sprintf(
					"in-place store while the backup still lags tx %d's modification — no consistent copy exists", by))
			}
			s.dirtyBy[e.Obj] = e.TxID
		}
	case KindLockAcquire:
		if s.p.requireBackup && s.known[e.TxID] {
			if by := s.dirtyBy[e.Obj]; by != 0 && by != e.TxID && !s.fresh[e.Obj] {
				add(e, "dependent-not-blocked", fmt.Sprintf(
					"lock granted while tx %d's modification is not yet reconciled to the backup", by))
			}
		}
	case KindBackupSync:
		delete(s.dirtyBy, e.Obj)
		delete(s.fresh, e.Obj)
	case KindRollback:
		// A rolled-back object is restored (or, for a fresh alloc,
		// gone); either way nothing about it remains unreconciled.
		delete(s.dirtyBy, e.Obj)
		delete(s.fresh, e.Obj)
	case KindCommitMarker, KindAbort:
		delete(s.intents, e.TxID)
		delete(s.known, e.TxID)
	}
}

// AuditAll audits a recorded event slice through the online auditor's
// router and returns violations keyed by engine actor (actors with none
// are omitted). It sees only what the slice holds: events a wrapped ring
// dropped are not audited, which an attached OnlineAuditor avoids.
func AuditAll(events []Event) map[string][]Violation {
	out := map[string][]Violation{}
	a := newOnlineAuditor(OnlineOptions{OnViolation: func(v Violation) {
		out[v.Actor] = append(out[v.Actor], v)
	}})
	a.processBatch(events)
	return out
}
