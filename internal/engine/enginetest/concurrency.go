package enginetest

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"kaminotx/internal/heap"
	"kaminotx/internal/trace"
)

// The concurrency conformance suite drives many goroutines through the
// engine at once — the lock table, the heap's free lists and the intent
// log's free slots all under contention — and audits the recorded trace with
// the same policy engine the safety auditor uses: for kamino engines a
// clean audit means no store-without-copy and no dependent-not-blocked
// events slipped through under parallelism; for intent-logging engines it
// means every in-place store was preceded by an intent entry.
//
// An engine that cannot abort or recover alone (the in-place chain-replica
// engine) still runs the parallel part of the contract.
func runConcurrency(t *testing.T, f Factory) {
	t.Run("ParallelDisjoint", func(t *testing.T) { testParallelDisjoint(t, f) })
	if f.Atomic && f.New(t).Crash != nil {
		t.Run("CrashMidBurst", func(t *testing.T) { testCrashMidBurst(t, f) })
	}
}

// concVal derives the deterministic payload byte for worker w's j-th
// object after its i-th transaction, so the final heap state is checkable
// without any cross-goroutine bookkeeping.
func concVal(w, i, j int) byte { return byte(1 + w*37 + i*7 + j*3) }

// auditRecording fails the test if the ring dropped events or the audit
// finds any violation (store-without-copy, dependent-not-blocked,
// store-without-intent, intent-not-durable — whichever the engine's
// policy enables).
func auditRecording(t *testing.T, rec *trace.Recorder) {
	t.Helper()
	if rec.Dropped() > 0 {
		t.Fatalf("trace ring wrapped (%d dropped); raise capacity", rec.Dropped())
	}
	if report := trace.AuditAll(rec.Events()); len(report) != 0 {
		for actor, vs := range report {
			for i, v := range vs {
				if i < 5 {
					t.Errorf("%s: %s", actor, v)
				}
			}
		}
		t.Fatal("trace audit failed under concurrency")
	}
}

// testParallelDisjoint runs many writers over disjoint key sets — the
// workload sharding is supposed to make fully parallel — and verifies that
// every object ends with its owner's last committed value and that the
// event stream passes the safety audit.
func testParallelDisjoint(t *testing.T, f Factory) {
	inst := f.New(t)
	defer inst.Engine.Close()
	rec := trace.NewRecorder(1 << 18)
	inst.Engine.SetTracer(rec.Tracer(inst.Engine.Name() + "#conc"))

	const workers = 8
	const objsPerWorker = 4
	const txPerWorker = 25
	const objSize = 64

	objs := make([]heap.ObjID, workers*objsPerWorker)
	for i := range objs {
		objs[i] = mustAlloc(t, inst.Engine, make([]byte, objSize))
	}

	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := objs[w*objsPerWorker : (w+1)*objsPerWorker]
			val := make([]byte, objSize)
			for i := 0; i < txPerWorker; i++ {
				tx, err := inst.Engine.Begin()
				if err != nil {
					errCh <- err
					return
				}
				for j, obj := range mine {
					if err := tx.Add(obj); err != nil {
						errCh <- fmt.Errorf("worker %d Add: %w", w, err)
						return
					}
					for k := range val {
						val[k] = concVal(w, i, j)
					}
					if err := tx.Write(obj, 0, val); err != nil {
						errCh <- fmt.Errorf("worker %d Write: %w", w, err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					errCh <- fmt.Errorf("worker %d Commit: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	inst.Engine.Drain()

	for w := 0; w < workers; w++ {
		for j := 0; j < objsPerWorker; j++ {
			want := bytes.Repeat([]byte{concVal(w, txPerWorker-1, j)}, objSize)
			got := readObj(t, inst.Engine, objs[w*objsPerWorker+j], objSize)
			if !bytes.Equal(got, want) {
				t.Errorf("worker %d object %d = %x..., want %x", w, j, got[:4], want[0])
			}
		}
	}
	auditRecording(t, rec)
}

// testCrashMidBurst cuts power while a concurrent burst's last transaction
// is still in flight: all committed transactions must survive recovery,
// the in-flight one must roll back even though its torn store was durable,
// and the trace recorded up to the crash must pass the safety audit.
func testCrashMidBurst(t *testing.T, f Factory) {
	inst := f.New(t)
	rec := trace.NewRecorder(1 << 18)
	inst.Engine.SetTracer(rec.Tracer(inst.Engine.Name() + "#burst"))

	const workers = 6
	const objsPerWorker = 2
	const txPerWorker = 15
	const objSize = 64

	objs := make([]heap.ObjID, workers*objsPerWorker)
	for i := range objs {
		objs[i] = mustAlloc(t, inst.Engine, bytes.Repeat([]byte{0xee}, objSize))
	}

	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := objs[w*objsPerWorker : (w+1)*objsPerWorker]
			val := make([]byte, objSize)
			for i := 0; i < txPerWorker; i++ {
				tx, err := inst.Engine.Begin()
				if err != nil {
					errCh <- err
					return
				}
				for j, obj := range mine {
					if err := tx.Add(obj); err != nil {
						errCh <- err
						return
					}
					for k := range val {
						val[k] = concVal(w, i, j)
					}
					if err := tx.Write(obj, 0, val); err != nil {
						errCh <- err
						return
					}
				}
				if err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// One more transaction begins, declares its intent, stores a durable
	// torn write — and the power fails before it can commit. Its goroutine
	// has stopped issuing operations, which is the contract Instance.Crash
	// requires for a mid-transaction power cut.
	tx, err := inst.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Add(objs[0]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(objs[0], 0, bytes.Repeat([]byte{0xdd}, objSize)); err != nil {
		t.Fatal(err)
	}
	if err := inst.Engine.Heap().Region().Persist(int(objs[0]), objSize); err != nil {
		t.Fatal(err)
	}
	e2, err := inst.Crash()
	if err != nil {
		t.Fatalf("crash-reopen: %v", err)
	}
	defer e2.Close()

	for w := 0; w < workers; w++ {
		for j := 0; j < objsPerWorker; j++ {
			want := bytes.Repeat([]byte{concVal(w, txPerWorker-1, j)}, objSize)
			got := readObj(t, e2, objs[w*objsPerWorker+j], objSize)
			if !bytes.Equal(got, want) {
				t.Errorf("worker %d object %d diverged after mid-burst crash: %x, want %x",
					w, j, got[:4], want[0])
			}
		}
	}
	auditRecording(t, rec)
}
