package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRecorderOrderAndWrap(t *testing.T) {
	r := NewRecorder(1024)
	tr := r.Tracer("eng#1")
	for i := 0; i < 2000; i++ {
		tr.TxBegin(uint64(i + 1))
	}
	if got := r.Total(); got != 2000 {
		t.Fatalf("Total = %d, want 2000", got)
	}
	if got := r.Dropped(); got != 2000-1024 {
		t.Fatalf("Dropped = %d, want %d", got, 2000-1024)
	}
	ev := r.Events()
	if len(ev) != 1024 {
		t.Fatalf("retained %d events, want 1024", len(ev))
	}
	for i, e := range ev {
		if want := uint64(2000 - 1024 + i + 1); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, want)
		}
		if e.Actor != "eng#1" {
			t.Fatalf("event %d actor = %q", i, e.Actor)
		}
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.TxBegin(1)
	tr.LockAcquire(1, 2)
	tr.IntentAppend(1, 2, 0, 16, "write")
	tr.InPlaceWrite(1, 2, 0, 8)
	tr.CommitMarker(1)
	tr.BackupSync(1, 2)
	tr.Abort(1)
	tr.Rollback(1, 2)
	tr.Span("heap_persist", 1, time.Microsecond)
	tr.DevWrite(0, 8)
	tr.DevFlush(0, 8)
	tr.DevFence()
	tr.DevCrash(true)
	tr.ChainForward(2)
	tr.ChainApply(2)
	tr.ChainAck(2)
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	if tr.Actor() != "" {
		t.Fatal("nil tracer has an actor")
	}
}

// durableIntent emits the device traffic that makes the intent entry at
// [off, off+n) durable on the actor's log region.
func durableIntent(tr, logTr *Tracer, txid, obj uint64, off, n int, op string) {
	logTr.DevWrite(off, n)
	logTr.DevFlush(off, n)
	logTr.DevFence()
	tr.IntentAppend(txid, obj, off, n, op)
}

func TestAuditCleanSequence(t *testing.T) {
	r := NewRecorder(0)
	tr := r.Tracer("kamino#1")
	logTr := r.Tracer("kamino#1/log")

	tr.TxBegin(1)
	tr.LockAcquire(1, 100)
	durableIntent(tr, logTr, 1, 100, 0, 32, "write")
	tr.InPlaceWrite(1, 100, 100, 64)
	tr.CommitMarker(1)
	tr.BackupSync(1, 100)

	// Second tx touches the same object after reconciliation: legal.
	tr.TxBegin(2)
	tr.LockAcquire(2, 100)
	durableIntent(tr, logTr, 2, 100, 32, 32, "write")
	tr.InPlaceWrite(2, 100, 100, 64)
	tr.CommitMarker(2)
	tr.BackupSync(2, 100)

	if vs := AuditAll(r.Events()); len(vs) != 0 {
		t.Fatalf("clean sequence flagged: %v", vs)
	}
}

func TestAuditIntentNotDurable(t *testing.T) {
	r := NewRecorder(0)
	tr := r.Tracer("kamino#1")
	logTr := r.Tracer("kamino#1/log")

	tr.TxBegin(1)
	tr.LockAcquire(1, 100)
	// Entry written and flushed but never fenced: not durable.
	logTr.DevWrite(0, 32)
	logTr.DevFlush(0, 32)
	tr.IntentAppend(1, 100, 0, 32, "write")
	tr.InPlaceWrite(1, 100, 100, 64)

	vs := AuditAll(r.Events())["kamino#1"]
	if len(vs) != 1 || vs[0].Rule != "intent-not-durable" {
		t.Fatalf("want one intent-not-durable violation, got %v", vs)
	}
}

func TestAuditStoreWithoutIntent(t *testing.T) {
	r := NewRecorder(0)
	tr := r.Tracer("undo#1")

	tr.TxBegin(1)
	tr.LockAcquire(1, 100)
	// Heap store before any intent entry: the deliberately mis-ordered
	// engine the auditor exists to catch.
	tr.InPlaceWrite(1, 100, 100, 64)

	vs := AuditAll(r.Events())["undo#1"]
	if len(vs) != 1 || vs[0].Rule != "store-without-intent" {
		t.Fatalf("want one store-without-intent violation, got %v", vs)
	}
}

func TestAuditStoreWithoutCopy(t *testing.T) {
	r := NewRecorder(0)
	tr := r.Tracer("kamino#1")
	logTr := r.Tracer("kamino#1/log")

	tr.TxBegin(1)
	tr.LockAcquire(1, 100)
	durableIntent(tr, logTr, 1, 100, 0, 32, "write")
	tr.InPlaceWrite(1, 100, 100, 64)
	tr.CommitMarker(1)
	// No BackupSync: tx 2 modifies the object while the backup lags.
	tr.TxBegin(2)
	durableIntent(tr, logTr, 2, 100, 32, 32, "write")
	tr.InPlaceWrite(2, 100, 100, 64)

	var rules []string
	for _, v := range AuditAll(r.Events())["kamino#1"] {
		rules = append(rules, v.Rule)
	}
	if len(rules) != 1 || rules[0] != "store-without-copy" {
		t.Fatalf("want [store-without-copy], got %v", rules)
	}
}

func TestAuditDependentNotBlocked(t *testing.T) {
	r := NewRecorder(0)
	tr := r.Tracer("kamino#1")
	logTr := r.Tracer("kamino#1/log")

	tr.TxBegin(1)
	tr.LockAcquire(1, 100)
	durableIntent(tr, logTr, 1, 100, 0, 32, "write")
	tr.InPlaceWrite(1, 100, 100, 64)
	tr.CommitMarker(1)
	// Lock handed to tx 2 before the backup reconciled tx 1's write.
	tr.TxBegin(2)
	tr.LockAcquire(2, 100)

	vs := AuditAll(r.Events())["kamino#1"]
	if len(vs) != 1 || vs[0].Rule != "dependent-not-blocked" {
		t.Fatalf("want one dependent-not-blocked violation, got %v", vs)
	}
}

func TestAuditFreshAllocNeedsNoBackup(t *testing.T) {
	r := NewRecorder(0)
	tr := r.Tracer("kamino-dynamic#1")
	logTr := r.Tracer("kamino-dynamic#1/log")

	// Tx 1 allocates obj: no backup copy can exist yet, and the dynamic
	// backend does not create one. Subsequent transactions may still
	// touch it before any BackupSync.
	tr.TxBegin(1)
	tr.LockAcquire(1, 100)
	durableIntent(tr, logTr, 1, 100, 0, 32, "alloc")
	tr.InPlaceWrite(1, 100, 100, 64)
	tr.CommitMarker(1)
	tr.TxBegin(2)
	tr.LockAcquire(2, 100)
	durableIntent(tr, logTr, 2, 100, 32, 32, "write")
	tr.InPlaceWrite(2, 100, 100, 64)
	tr.CommitMarker(2)

	if vs := AuditAll(r.Events()); len(vs) != 0 {
		t.Fatalf("fresh allocation flagged: %v", vs)
	}
}

func TestAuditCrashResetsState(t *testing.T) {
	r := NewRecorder(0)
	tr := r.Tracer("kamino#1")
	logTr := r.Tracer("kamino#1/log")

	tr.TxBegin(1)
	durableIntent(tr, logTr, 1, 100, 0, 32, "write")
	tr.InPlaceWrite(1, 100, 100, 64)
	// Crash: recovery (untraced) reconciles everything.
	logTr.DevCrash(false)
	// Post-crash transaction under a fresh incarnation of the actor.
	tr2 := r.Tracer("kamino#2")
	logTr2 := r.Tracer("kamino#2/log")
	tr2.TxBegin(7)
	tr2.LockAcquire(7, 100)
	durableIntent(tr2, logTr2, 7, 100, 0, 32, "write")
	tr2.InPlaceWrite(7, 100, 100, 64)
	tr2.CommitMarker(7)
	tr2.BackupSync(7, 100)

	if vs := AuditAll(r.Events()); len(vs) != 0 {
		t.Fatalf("crash-separated transactions flagged: %v", vs)
	}
}

func TestAuditSkipsUnknownTxs(t *testing.T) {
	r := NewRecorder(0)
	tr := r.Tracer("kamino#1")
	// No TxBegin in the stream (as after a ring wrap): events must be
	// skipped, not flagged.
	tr.InPlaceWrite(42, 100, 100, 64)
	tr.LockAcquire(42, 100)
	if vs := AuditAll(r.Events()); len(vs) != 0 {
		t.Fatalf("unknown-tx events flagged: %v", vs)
	}
}

func TestAuditNologChecksNothing(t *testing.T) {
	r := NewRecorder(0)
	tr := r.Tracer("nolog#1")
	tr.TxBegin(1)
	tr.InPlaceWrite(1, 100, 100, 64)
	if vs := AuditAll(r.Events()); len(vs) != 0 {
		t.Fatalf("nolog baseline flagged: %v", vs)
	}
}

func TestWriteJSONL(t *testing.T) {
	r := NewRecorder(0)
	tr := r.Tracer("eng#1")
	tr.TxBegin(1)
	tr.IntentAppend(1, 100, 0, 32, "write")
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if e.Obj != 100 || e.Off != 0 || e.Len != 32 || e.Phase != "write" {
		t.Fatalf("round-trip mismatch: %+v", e)
	}
}

func TestWriteChrome(t *testing.T) {
	r := NewRecorder(0)
	tr := r.Tracer("kamino#1")
	ch := r.Tracer("chain/replica-0")
	tr.TxBegin(1)
	tr.Span("heap_persist", 1, 3*time.Microsecond)
	tr.IntentAppend(1, 100, 0, 32, "alloc")
	ch.ChainForward(7)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   uint64         `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid Chrome trace JSON: %v", err)
	}
	var metaNames []string
	var sawSpan, sawIntent, sawChain bool
	for _, e := range doc.TraceEvents {
		switch {
		case e.Phase == "M" && e.Name == "process_name":
			metaNames = append(metaNames, e.Args["name"].(string))
		case e.Phase == "X" && e.Name == "heap_persist":
			sawSpan = true
			if e.Dur != 3 {
				t.Fatalf("span dur = %v µs, want 3", e.Dur)
			}
			if e.TS < 0 {
				t.Fatalf("span ts = %v, want >= 0", e.TS)
			}
		case e.Name == "intent_append:alloc":
			sawIntent = true
		case e.Name == "chain_forward":
			sawChain = true
			if e.TID != 7 {
				t.Fatalf("chain event on lane %d, want its sequence number 7", e.TID)
			}
		}
	}
	if len(metaNames) != 2 {
		t.Fatalf("process_name metadata = %v, want 2 actors", metaNames)
	}
	if !sawSpan || !sawIntent || !sawChain {
		t.Fatalf("missing events: span=%v intent=%v chain=%v", sawSpan, sawIntent, sawChain)
	}
}
