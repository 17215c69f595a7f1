package chain

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"kaminotx/internal/membership"
	"kaminotx/internal/trace"
	"kaminotx/internal/transport"
)

// newBatchChain builds a strict or fast chain with batching knobs and an
// optional trace recorder.
func newBatchChain(t *testing.T, n int, strict bool, batchOps int, delay time.Duration, rec *trace.Recorder) *testChain {
	t.Helper()
	tr := transport.NewInProc(0)
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(fmt.Sprintf("n%d", i))
	}
	mgr, err := membership.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewKVRegistry()
	tc := &testChain{tr: tr, mgr: mgr, replicas: make(map[transport.NodeID]*Replica), order: ids}
	for _, id := range ids {
		rep, err := NewReplica(id, Config{
			Mode:       ModeKamino,
			HeapSize:   8 << 20,
			Alpha:      0.5,
			Strict:     strict,
			BatchOps:   batchOps,
			BatchDelay: delay,
			Registry:   reg,
			Transport:  tr,
			Manager:    mgr,
			Setup:      KVSetup,
			Trace:      rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.replicas[id] = rep
	}
	tc.client = NewKVClient(func() *Replica {
		return tc.replicas[mgr.View().Head()]
	})
	t.Cleanup(func() {
		for _, rep := range tc.replicas {
			rep.Close()
		}
		tr.Close()
	})
	return tc
}

// auditClean fails the test if any engine's trace violates the Kamino-Tx
// safety invariants.
func auditClean(t *testing.T, rec *trace.Recorder) {
	t.Helper()
	for actor, vs := range trace.AuditAll(rec.Events()) {
		for _, v := range vs {
			t.Errorf("audit violation at %s: %s", actor, v)
		}
	}
}

// verifyAll checks that every replica holds val for every key in want.
func verifyAll(t *testing.T, tc *testChain, want map[uint64]string) {
	t.Helper()
	for _, id := range tc.order {
		rep, ok := tc.replicas[id]
		if !ok {
			continue
		}
		for k, v := range want {
			got, ok := localGet(t, rep, k)
			if !ok || string(got) != v {
				t.Errorf("replica %s: key %d = %q %v, want %q", id, k, got, ok, v)
			}
		}
	}
}

// TestBatchedReplicationUnderLoad: with batching on and concurrent clients,
// every committed write must still reach every replica, multi-op batches
// must actually form, and the trace must audit clean.
func TestBatchedReplicationUnderLoad(t *testing.T) {
	rec := trace.NewRecorder(0)
	tc := newBatchChain(t, 4, false, 16, time.Millisecond, rec)

	const clients = 8
	const perClient = 30
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				key := uint64(c*perClient + i)
				if err := tc.client.Put(key, []byte(fmt.Sprintf("v%d", key))); err != nil {
					errCh <- fmt.Errorf("Put(%d): %w", key, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	waitErrFree(t, tc)

	want := make(map[uint64]string, clients*perClient)
	for k := uint64(0); k < clients*perClient; k++ {
		want[k] = fmt.Sprintf("v%d", k)
	}
	verifyAll(t, tc, want)

	// The head must have coalesced at least one multi-op batch: more ops
	// than downstream sends.
	head := tc.replicas[tc.mgr.View().Head()]
	s := head.Obs().Snapshot()
	if s.Counters["batch_ops"] <= s.Counters["batches"] {
		t.Errorf("no batching happened: batch_ops=%d batches=%d",
			s.Counters["batch_ops"], s.Counters["batches"])
	}
	var sawBatch bool
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindChainBatch {
			sawBatch = true
			break
		}
	}
	if !sawBatch {
		t.Error("no chain_batch trace events recorded")
	}
	auditClean(t, rec)
}

// stageAndReboot stalls the pipeline of the replica at pos, submits ops so
// a batch is staged in its durable queues, power-cycles it mid-batch, and
// waits for all submissions to complete.
func stageAndReboot(t *testing.T, tc *testChain, pos int, partialSeed int64) map[uint64]string {
	t.Helper()
	target := tc.replicas[tc.order[pos]]
	target.stopExecutor()

	const ops = 12
	want := make(map[uint64]string, ops)
	var wg sync.WaitGroup
	errCh := make(chan error, ops)
	for i := 0; i < ops; i++ {
		key := uint64(i)
		want[key] = fmt.Sprintf("v%d", key)
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			if err := tc.client.Put(key, []byte(fmt.Sprintf("v%d", key))); err != nil {
				errCh <- fmt.Errorf("Put(%d): %w", key, err)
			}
		}(key)
	}

	// Wait until every op is staged in the stalled replica's input queue.
	// Rebooting earlier would race the upstream sends: a delivery hitting
	// the unregistered transport window is dropped and (absent a view
	// change) never resent.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, nIn, _ := target.getRing().Counts()
		if nIn == ops {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d records staged at the stalled replica", nIn, ops)
		}
		time.Sleep(time.Millisecond)
	}

	// Power failure mid-batch: records durable in the queues, none of the
	// post-crash processing done. Reboot re-attaches the queues and
	// resumes; re-execution is idempotent.
	var err error
	if partialSeed != 0 {
		err = target.RebootPartial(partialSeed)
	} else {
		err = target.Reboot()
	}
	if err != nil {
		t.Fatalf("reboot replica %d: %v", pos, err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("submissions did not complete after mid-batch reboot")
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return want
}

// TestBatchBoundaryCrash: a power failure while a batch sits in a replica's
// durable queues — staged but not yet executed/forwarded/acked — must
// recover to a prefix of head order and then complete every submission,
// with zero safety-audit violations. Runs for the middle and tail replicas
// under both the strict (all unfenced lines lost) and partial
// (flushed-but-unfenced lines randomly survive) loss models.
func TestBatchBoundaryCrash(t *testing.T) {
	for _, tcase := range []struct {
		name string
		pos  int
		seed int64
	}{
		{"mid/full-loss", 1, 0},
		{"mid/partial-loss", 1, 42},
		{"tail/full-loss", 2, 0},
		{"tail/partial-loss", 2, 7},
	} {
		t.Run(tcase.name, func(t *testing.T) {
			rec := trace.NewRecorder(0)
			tc := newBatchChain(t, 3, true, 8, 0, rec)
			want := stageAndReboot(t, tc, tcase.pos, tcase.seed)
			waitErrFree(t, tc)
			verifyAll(t, tc, want)
			auditClean(t, rec)
		})
	}
}

// TestBatchBoundaryCrashHead: power-failing the head while a batch is in
// flight (forwarded downstream, tail stalled, ack outstanding) must
// re-promote from the durable in-flight queue, re-drive the batch, and
// complete every client once the tail resumes.
func TestBatchBoundaryCrashHead(t *testing.T) {
	for _, tcase := range []struct {
		name string
		seed int64
	}{
		{"full-loss", 0},
		{"partial-loss", 99},
	} {
		t.Run(tcase.name, func(t *testing.T) {
			rec := trace.NewRecorder(0)
			tc := newBatchChain(t, 3, true, 8, 0, rec)
			head := tc.replicas[tc.order[0]]
			tail := tc.replicas[tc.order[2]]

			// Stall the tail so batches stay in flight at the head.
			tail.stopExecutor()

			const ops = 12
			want := make(map[uint64]string, ops)
			var wg sync.WaitGroup
			errCh := make(chan error, ops)
			for i := 0; i < ops; i++ {
				key := uint64(i)
				want[key] = fmt.Sprintf("v%d", key)
				wg.Add(1)
				go func(key uint64) {
					defer wg.Done()
					if err := tc.client.Put(key, []byte(fmt.Sprintf("v%d", key))); err != nil {
						errCh <- fmt.Errorf("Put(%d): %w", key, err)
					}
				}(key)
			}
			// Wait until every op is durable in the head's in-flight
			// queue AND staged at the stalled tail, so the reboot's
			// transport-unregistered window has no deliveries to lose.
			deadline := time.Now().Add(10 * time.Second)
			for {
				nFlt, _, _ := head.getRing().Counts()
				_, nTail, _ := tail.getRing().Counts()
				if nFlt == ops && nTail == ops {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("staged %d in flight, %d at tail; want %d each", nFlt, nTail, ops)
				}
				time.Sleep(time.Millisecond)
			}

			var err error
			if tcase.seed != 0 {
				err = head.RebootPartial(tcase.seed)
			} else {
				err = head.Reboot()
			}
			if err != nil {
				t.Fatalf("reboot head: %v", err)
			}
			tail.startExecutor()
			tail.kick()

			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("submissions did not complete after head reboot")
			}
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			waitErrFree(t, tc)
			verifyAll(t, tc, want)
			auditClean(t, rec)
		})
	}
}
