package trace_test

import (
	"sync"
	"testing"

	"kaminotx/internal/nvm"
	"kaminotx/internal/trace"
)

// tracedEngine bundles one actor's tracer and log/heap regions wired
// into a shared recorder, so tests can drive the real device hooks.
type tracedEngine struct {
	tr   *trace.Tracer
	logR *nvm.Region
	heap *nvm.Region
}

func newTracedEngine(t *testing.T, rec *trace.Recorder, actor string) *tracedEngine {
	t.Helper()
	logR, err := nvm.New(1<<16, nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	logR.SetTracer(rec.Tracer(actor + "/log"))
	heap, err := nvm.New(1<<16, nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	heap.SetTracer(rec.Tracer(actor + "/main"))
	return &tracedEngine{tr: rec.Tracer(actor), logR: logR, heap: heap}
}

// correctTx runs one protocol-respecting transaction: intent appended,
// flushed and FENCED before the in-place heap store.
func (e *tracedEngine) correctTx(t *testing.T, txid uint64, logOff int, obj uint64) {
	t.Helper()
	entry := make([]byte, 32)
	e.tr.TxBegin(txid)
	e.tr.LockAcquire(txid, obj)
	if err := e.logR.Write(logOff, entry); err != nil {
		t.Fatal(err)
	}
	if err := e.logR.Flush(logOff, len(entry)); err != nil {
		t.Fatal(err)
	}
	e.logR.Fence()
	e.tr.IntentAppend(txid, obj, logOff, len(entry), "write")
	if err := e.heap.Write(int(obj), entry); err != nil {
		t.Fatal(err)
	}
	e.tr.InPlaceWrite(txid, obj, int(obj), len(entry))
	e.tr.CommitMarker(txid)
}

// buggyTx seeds the persist-order bug: the intent entry is flushed but
// the fence is skipped, so the heap store races ahead of a durable
// intent.
func (e *tracedEngine) buggyTx(t *testing.T, txid uint64, logOff int, obj uint64) {
	t.Helper()
	entry := make([]byte, 32)
	e.tr.TxBegin(txid)
	e.tr.LockAcquire(txid, obj)
	if err := e.logR.Write(logOff, entry); err != nil {
		t.Fatal(err)
	}
	if err := e.logR.Flush(logOff, len(entry)); err != nil {
		t.Fatal(err)
	}
	e.tr.IntentAppend(txid, obj, logOff, len(entry), "write")
	if err := e.heap.Write(int(obj), entry); err != nil {
		t.Fatal(err)
	}
	e.tr.InPlaceWrite(txid, obj, int(obj), len(entry))
	e.tr.CommitMarker(txid)
}

// The online auditor must flag a seeded intent-before-store violation
// while the run is still in progress — not at teardown.
func TestOnlineAuditorCatchesSeededBugLive(t *testing.T) {
	rec := trace.NewRecorder(0)
	a := trace.AttachOnline(rec, trace.OnlineOptions{})
	eng := newTracedEngine(t, rec, "undo#1")

	eng.correctTx(t, 1, 0, 4096)
	a.Flush()
	if err := a.Err(); err != nil {
		t.Fatalf("correct ordering flagged: %v", err)
	}

	eng.buggyTx(t, 2, 64, 8192)
	a.Flush() // the run is still live: no Close, recorder still attached
	if err := a.Err(); err == nil {
		t.Fatal("seeded fence-skip not caught mid-run")
	}
	vs := a.Violations()
	if len(vs) != 1 {
		t.Fatalf("want exactly one violation, got %v", vs)
	}
	if vs[0].Rule != "intent-not-durable" || vs[0].TxID != 2 || vs[0].Obj != 8192 {
		t.Fatalf("wrong violation: %+v", vs[0])
	}
	if vs[0].Actor != "undo#1" {
		t.Fatalf("violation actor %q, want engine actor undo#1", vs[0].Actor)
	}

	// Later correct traffic must not add violations, and Close returns
	// the same single violation.
	eng.correctTx(t, 3, 128, 12288)
	if vs := a.Close(); len(vs) != 1 {
		t.Fatalf("violations after close = %v, want the original one", vs)
	}
	if st := a.Stats(); st.Violations != 1 || st.Events == 0 {
		t.Fatalf("stats = %+v, want 1 violation over a non-zero event count", st)
	}
}

// AuditAll replays the ring, so a violation that wraps out of the buffer
// is invisible to it. The online auditor consumes the
// sink (every event, before wrap-around can drop it) and must still
// hold the violation after the ring has long since lost the evidence.
func TestOnlineAuditorSeesThroughRingWrap(t *testing.T) {
	rec := trace.NewRecorder(1024) // minimum ring: easy to wrap
	a := trace.AttachOnline(rec, trace.OnlineOptions{})
	eng := newTracedEngine(t, rec, "undo#1")

	eng.buggyTx(t, 1, 0, 4096)

	// Flood the ring with benign unaudited traffic until the buggy
	// transaction's events are gone from the buffer.
	filler := rec.Tracer("nolog#1")
	for i := uint64(0); rec.Dropped() < 32; i++ {
		filler.TxBegin(i)
		filler.CommitMarker(i)
	}

	if post := trace.AuditAll(rec.Events()); len(post) != 0 {
		t.Fatalf("post-hoc audit unexpectedly sees the wrapped violation: %v", post)
	}
	vs := a.Close()
	if len(vs) != 1 || vs[0].Rule != "intent-not-durable" {
		t.Fatalf("online auditor lost the wrapped violation: %v", vs)
	}
	// Nothing blocked and nothing dropped: every event emitted, including
	// the ones the ring has overwritten, went through the auditor.
	if got, want := a.Stats().Events, rec.Total(); got != want {
		t.Fatalf("auditor processed %d events, recorder emitted %d", got, want)
	}
}

// Concurrent emitters (one engine actor each) must audit cleanly under
// the race detector while another goroutine polls the auditor's accessors,
// and per-transaction state must retire at commit so the working set
// returns to zero.
func TestOnlineAuditorConcurrentEmitters(t *testing.T) {
	rec := trace.NewRecorder(0)
	a := trace.AttachOnline(rec, trace.OnlineOptions{})

	const engines = 8
	const txs = 50
	engs := make([]*tracedEngine, engines)
	for i := range engs {
		engs[i] = newTracedEngine(t, rec, "undo#"+string(rune('1'+i)))
	}
	var wg sync.WaitGroup
	for _, e := range engs {
		wg.Add(1)
		go func(e *tracedEngine) {
			defer wg.Done()
			for n := 0; n < txs; n++ {
				e.correctTx(t, uint64(n+1), n*64, uint64(4096+n*64))
			}
		}(e)
	}
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := a.Stats(); st.Violations != 0 || len(a.Violations()) != 0 {
				t.Errorf("violation seen mid-run: %v", a.Violations())
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-polled
	a.Flush()

	st := a.Stats()
	if st.Violations != 0 {
		t.Fatalf("clean concurrent run produced violations: %v", a.Violations())
	}
	if st.Actors != engines {
		t.Fatalf("actors tracked = %d, want %d", st.Actors, engines)
	}
	if st.LiveTxs != 0 {
		t.Fatalf("LiveTxs = %d after all commits, want 0 (commit must retire tx state)", st.LiveTxs)
	}
	if got := rec.Total(); st.Events != got {
		t.Fatalf("auditor processed %d events, recorder emitted %d", st.Events, got)
	}
	a.Close()
}

// Close detaches: the recorder keeps recording, and an auditor attached
// afterwards audits only what is emitted from then on — not the ring's
// backlog, and not the first auditor's findings.
func TestOnlineAuditorReattach(t *testing.T) {
	rec := trace.NewRecorder(0)
	eng := newTracedEngine(t, rec, "undo#1")

	first := trace.AttachOnline(rec, trace.OnlineOptions{})
	eng.buggyTx(t, 1, 0, 4096)
	if vs := first.Close(); len(vs) != 1 || vs[0].TxID != 1 {
		t.Fatalf("first auditor: violations = %v, want tx 1's", vs)
	}
	eng.buggyTx(t, 2, 64, 8192) // nobody is listening
	before := rec.Total()

	second := trace.AttachOnline(rec, trace.OnlineOptions{})
	eng.correctTx(t, 3, 128, 12288)
	eng.buggyTx(t, 4, 192, 16384)
	vs := second.Close()
	if len(vs) != 1 || vs[0].TxID != 4 {
		t.Fatalf("second auditor: violations = %v, want only tx 4's", vs)
	}
	if got, want := second.Stats().Events, rec.Total()-before; got != want {
		t.Fatalf("second auditor processed %d events, %d were emitted after it attached", got, want)
	}
	if got := first.Stats().Events; got >= before {
		t.Fatalf("first auditor processed %d events, but detached before event %d", got, before)
	}
}
