package chain

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"kaminotx/internal/membership"
	"kaminotx/internal/pqueue"
	"kaminotx/internal/transport"
)

// View-change conformance: kill, reboot, and rejoin replicas mid-traffic
// and check the repair invariants — sequence continuity, no admission-lock
// leaks, no zombie pipelines, and state-transfer rejoin correctness.

// putRetry retries a put through the transient errors a view change emits
// (redirects from a demoted or dying head, sends to just-removed nodes).
func putRetry(t *testing.T, tc *testChain, key uint64, val []byte) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := tc.client.Put(key, val)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrNotHead) && !errors.Is(err, transport.ErrUnknownNode) {
			t.Fatalf("Put(%d): %v", key, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("Put(%d): still failing after view change: %v", key, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill fail-stops a replica: isolate it, remove it from the view, shut the
// process down.
func (tc *testChain) kill(t *testing.T, id transport.NodeID) {
	t.Helper()
	tc.tr.Unregister(id)
	if _, err := tc.mgr.ReportFailure(id); err != nil {
		t.Fatal(err)
	}
	tc.mu.Lock()
	rep := tc.replicas[id]
	delete(tc.replicas, id)
	tc.mu.Unlock()
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHeadKillUnderLoadPromotesCleanly kills the head while clients are
// writing. The successor must promote at a transaction boundary — before
// the promotion freeze, pool.Promote could close the in-place engine under
// the live pipeline and the reopened engine rolled the stranded intent
// back against an empty backup (a fatal invariant violation).
func TestHeadKillUnderLoadPromotesCleanly(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 4, false)
	const goroutines, perG = 4, 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < perG; i++ {
				putRetry(t, tc, base*1000+i, []byte{byte(base), byte(i)})
			}
		}(uint64(g))
	}
	time.Sleep(5 * time.Millisecond) // let the load reach the middle's drain
	tc.kill(t, tc.order[0])
	wg.Wait()

	newHead := tc.replicas[tc.mgr.View().Head()]
	waitFor(t, "promotion", newHead.IsHead)
	waitFor(t, "admission locks to drain", func() bool { return newHead.LockedKeys() == 0 })
	// Every surviving replica converged on the completed writes.
	for g := 0; g < goroutines; g++ {
		key := uint64(g)*1000 + perG - 1
		want := []byte{byte(g), byte(perG - 1)}
		for _, id := range tc.mgr.View().Members {
			waitFor(t, fmt.Sprintf("replica %s key %d", id, key), func() bool {
				v, ok := localGet(t, tc.replicas[id], key)
				return ok && string(v) == string(want)
			})
		}
	}
	waitErrFree(t, tc)
}

// TestSeqContinuityAfterPromotionAndReboot reboots a promoted head.
// Sequence numbering must resume from the persistent queue cursors: before
// the fix, promoteToHead derived nextSeq only from still-in-flight records,
// so a rebooted head with an empty in-flight queue restarted numbering at 1
// and every subsequent operation was silently swallowed by the replicas'
// duplicate filters (the put below would hang forever).
func TestSeqContinuityAfterPromotionAndReboot(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, true)
	for i := uint64(0); i < 20; i++ {
		if err := tc.client.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	tc.kill(t, tc.order[0])
	newHeadID := tc.mgr.View().Head()
	newHead := tc.replicas[newHeadID]
	waitFor(t, "promotion", newHead.IsHead)
	putRetry(t, tc, 100, []byte("after-failover"))

	// Power-cycle the promoted head, then write through it. Guard with a
	// watchdog: the pre-fix failure mode is an infinite hang, not an error.
	if err := newHead.Reboot(); err != nil {
		t.Fatalf("reboot promoted head: %v", err)
	}
	done := make(chan struct{})
	go func() {
		putRetry(t, tc, 101, []byte("after-reboot"))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("put after promoted-head reboot hung: sequence numbering restarted")
	}
	v, ok, err := tc.client.Get(101)
	if err != nil || !ok || string(v) != "after-reboot" {
		t.Fatalf("Get(101) = %q %v %v", v, ok, err)
	}
	// Old data survived both transitions.
	v, ok, err = tc.client.Get(10)
	if err != nil || !ok || v[0] != 10 {
		t.Fatalf("pre-failover data lost: %q %v %v", v, ok, err)
	}
	waitErrFree(t, tc)
}

// TestRemovedReplicaGoesQuiet removes a middle replica from the view without
// shutting its process down. The replica must go quiet on the view
// change — stop executing, leave the transport — rather than keep applying
// and forwarding as a zombie with a stale view.
func TestRemovedReplicaGoesQuiet(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 4, false)
	for i := uint64(0); i < 10; i++ {
		if err := tc.client.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	removedID := tc.order[1]
	removed := tc.replicas[removedID]
	// Remove from the view only — no Unregister, no Close. The replica
	// must do its own quiescing.
	if _, err := tc.mgr.ReportFailure(removedID); err != nil {
		t.Fatal(err)
	}
	// It must have left the transport: sends to it now fail.
	waitFor(t, "removed replica to unregister", func() bool {
		return errors.Is(tc.tr.Send(removedID, &transport.Message{Kind: transport.KindOpBatch}), transport.ErrUnknownNode)
	})
	// And its pipeline must be stopped: new traffic does not advance it.
	frozen := removed.LastExec()
	for i := uint64(100); i < 130; i++ {
		putRetry(t, tc, i, []byte{byte(i)})
	}
	// The survivors executed the new writes...
	tail := tc.replicas[tc.mgr.View().Tail()]
	waitFor(t, "tail to execute post-removal writes", func() bool { return tail.LastExec() > frozen })
	// ...the corpse did not.
	if le := removed.LastExec(); le != frozen {
		t.Fatalf("removed replica kept executing: lastExec %d -> %d", frozen, le)
	}
	waitErrFree(t, tc)
}

// TestTailKillNoLockLeak kills the tail mid-load. The promoted tail must
// acknowledge the in-flight suffix to the head with confirmed delivery and
// only then truncate its queue; the head's admission locks must all drain.
func TestTailKillNoLockLeak(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 4, false)
	const goroutines, perG = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < perG; i++ {
				putRetry(t, tc, base*1000+i, []byte{byte(i)})
			}
		}(uint64(g))
	}
	time.Sleep(5 * time.Millisecond)
	tc.kill(t, tc.order[len(tc.order)-1])
	wg.Wait()

	head := tc.replicas[tc.mgr.View().Head()]
	waitFor(t, "admission locks to drain", func() bool { return head.LockedKeys() == 0 })
	newTail := tc.replicas[tc.mgr.View().Tail()]
	waitFor(t, "new tail in-flight queue to truncate", func() bool {
		return newTail.DebugInfo().InflightBytes == 0
	})
	waitErrFree(t, tc)
}

// TestKillMidBatchConverges runs a batched chain (kills land mid-batch) and
// fail-stops the middle replica under load: no committed write may be lost
// and the survivors must converge.
func TestKillMidBatchConverges(t *testing.T) {
	tr := transport.NewInProc(0)
	ids := []transport.NodeID{"n0", "n1", "n2", "n3"}
	mgr, err := membership.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testChain{tr: tr, mgr: mgr, replicas: make(map[transport.NodeID]*Replica), order: ids}
	tc.cfg = Config{
		Mode: ModeKamino, HeapSize: 8 << 20, Alpha: 0.5,
		BatchOps:  8,
		Transport: tr, Manager: mgr,
	}
	for _, id := range ids {
		rep, err := NewReplica(id, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.replicas[id] = rep
	}
	tc.client = headClient(func() *Replica { return tc.get(mgr.View().Head()) })
	t.Cleanup(func() {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		for _, rep := range tc.replicas {
			rep.Close()
		}
		tr.Close()
	})

	const goroutines, perG = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < perG; i++ {
				putRetry(t, tc, base*1000+i, []byte{byte(base), byte(i)})
			}
		}(uint64(g))
	}
	time.Sleep(3 * time.Millisecond)
	tc.kill(t, "n1")
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		key := uint64(g)*1000 + perG - 1
		want := []byte{byte(g), byte(perG - 1)}
		for _, id := range tc.mgr.View().Members {
			waitFor(t, fmt.Sprintf("replica %s key %d", id, key), func() bool {
				v, ok := localGet(t, tc.replicas[id], key)
				return ok && string(v) == string(want)
			})
		}
	}
	head := tc.replicas[tc.mgr.View().Head()]
	waitFor(t, "admission locks to drain", func() bool { return head.LockedKeys() == 0 })
	waitErrFree(t, tc)
}

// TestJoinAsTailRestoresData replaces a failed middle replica with a fresh
// one built by state transfer. The joiner must come back with the full
// application state and serve as the chain's tail.
func TestJoinAsTailRestoresData(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, false)
	for i := uint64(0); i < 30; i++ {
		if err := tc.client.Put(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	tc.kill(t, tc.order[1])

	rep, err := JoinAsTail("n3", tc.cfg)
	if err != nil {
		t.Fatalf("JoinAsTail: %v", err)
	}
	tc.put("n3", rep)

	view := tc.mgr.View()
	if view.Tail() != "n3" {
		t.Fatalf("joined replica is not the tail: view %v", view.Members)
	}
	// The transferred image carries all committed data.
	for i := uint64(0); i < 30; i++ {
		v, ok := localGet(t, rep, i)
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("joiner missing key %d: %q %v", i, v, ok)
		}
	}
	// New traffic flows through the joiner (tail acks require it).
	for i := uint64(100); i < 120; i++ {
		if err := tc.client.Put(i, []byte{byte(i)}); err != nil {
			t.Fatalf("Put(%d) after rejoin: %v", i, err)
		}
	}
	v, ok, err := tc.client.Get(110) // reads serve from the new tail
	if err != nil || !ok || v[0] != 110 {
		t.Fatalf("Get via joiner = %v %v %v", v, ok, err)
	}
	waitErrFree(t, tc)
}

// TestJoinAsTailUnderLoad rebuilds a replica while clients keep writing:
// the kill→state-transfer→rejoin cycle must lose nothing and the joiner
// must converge with the survivors.
func TestJoinAsTailUnderLoad(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, false)
	const goroutines, perG = 4, 80
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < perG; i++ {
				putRetry(t, tc, base*1000+i, []byte{byte(base), byte(i)})
			}
		}(uint64(g))
	}
	time.Sleep(5 * time.Millisecond)
	tc.kill(t, tc.order[1])
	rep, err := JoinAsTail("n3", tc.cfg)
	if err != nil {
		t.Fatalf("JoinAsTail under load: %v", err)
	}
	tc.put("n3", rep)
	wg.Wait()

	// Every member — including the rebuilt one — converged.
	for g := 0; g < goroutines; g++ {
		key := uint64(g)*1000 + perG - 1
		want := []byte{byte(g), byte(perG - 1)}
		for _, id := range tc.mgr.View().Members {
			waitFor(t, fmt.Sprintf("replica %s key %d", id, key), func() bool {
				v, ok := localGet(t, tc.replicas[id], key)
				return ok && string(v) == string(want)
			})
		}
	}
	head := tc.replicas[tc.mgr.View().Head()]
	waitFor(t, "admission locks to drain", func() bool { return head.LockedKeys() == 0 })
	waitErrFree(t, tc)
}

// TestJoinAsTailRejectsMember refuses to "rejoin" a node that is still in
// the view — that would fork the chain.
func TestJoinAsTailRejectsMember(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, false)
	if _, err := JoinAsTail(tc.order[1], tc.cfg); err == nil {
		t.Fatal("JoinAsTail accepted an existing member")
	}
	waitErrFree(t, tc)
}

// TestRejoinAfterRemovalSameID readmits a node under its old NodeID after
// it was removed from the view — the "repaired machine comes back" path.
func TestRejoinAfterRemovalSameID(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, false)
	for i := uint64(0); i < 15; i++ {
		if err := tc.client.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	dead := tc.order[1]
	tc.kill(t, dead)
	rep, err := JoinAsTail(dead, tc.cfg)
	if err != nil {
		t.Fatalf("rejoin with original id: %v", err)
	}
	tc.put(dead, rep)
	if tc.mgr.View().Tail() != dead {
		t.Fatalf("rejoined node is not the tail: %v", tc.mgr.View().Members)
	}
	for i := uint64(0); i < 15; i++ {
		if v, ok := localGet(t, rep, i); !ok || v[0] != byte(i) {
			t.Fatalf("rejoined node missing key %d", i)
		}
	}
	if err := tc.client.Put(200, []byte("post-rejoin")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tc.client.Get(200)
	if err != nil || !ok || string(v) != "post-rejoin" {
		t.Fatalf("Get(200) = %q %v %v", v, ok, err)
	}
	waitErrFree(t, tc)
}

// TestCleanupReleasesPromotedHeadLocks reproduces the lost-ack lock leak:
// across a head failover the tail can address its re-acknowledgment to the
// dead head (its view is momentarily stale) so only the cleanup survives
// and reaches the promoted head. The head must treat that cleanup as the
// completion signal for its conservatively re-admitted admission locks —
// before the fix it only truncated the in-flight queue, the locks leaked
// forever, and every later writer of those keys wedged in admit.
func TestCleanupReleasesPromotedHeadLocks(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, false)
	putRetry(t, tc, 1, []byte("a"))

	tc.kill(t, "n0")
	waitFor(t, "n1 promoted", func() bool { return tc.mgr.View().Head() == "n1" })
	putRetry(t, tc, 1, []byte("b"))
	head := tc.get("n1")
	waitFor(t, "steady-state locks drained", func() bool { return head.LockedKeys() == 0 })

	// Simulate the lock state promoteToHead rebuilds when the old head died
	// with this record still awaiting cleanup: key 7 re-admitted under the
	// record's sequence number.
	seq := head.getRing().LastSeq()
	head.headMu.Lock()
	head.lockedBy[7] = struct{}{}
	head.inflight[seq] = inflightOp{lock: 7}
	head.headMu.Unlock()

	// The tail's direct ack died with the old head; only the cleanup
	// arrives at the promoted head.
	head.handle(&transport.Message{
		Kind: transport.KindCleanup, From: "n2", ViewID: tc.mgr.View().ID, Seq: seq,
	})
	if n := head.LockedKeys(); n != 0 {
		t.Fatalf("cleanup left %d admission locks held", n)
	}
	waitErrFree(t, tc)
}

// dumpChainState prints every replica's repair-relevant state; used when a
// schedule test wedges so the owner of a stuck admission lock is visible.
func dumpChainState(t *testing.T, tc *testChain) {
	t.Helper()
	view := tc.mgr.View()
	t.Logf("view %d members %v", view.ID, view.Members)
	tc.mu.RLock()
	defer tc.mu.RUnlock()
	for id, rep := range tc.replicas {
		t.Logf("%s: %s", id, rep.DebugInfo())
	}
}

// TestChaosScheduleLockDrain drives the chaos experiment's schedule —
// kill-middle+rejoin, head reboot, kill-tail+rejoin, kill-head+rejoin, all
// under live batched traffic on a small recycled key set — and then
// requires every admission lock to drain. A leaked lock wedges the next
// writer of that key forever, which is exactly how the chaos experiment
// intermittently hung.
func TestChaosScheduleLockDrain(t *testing.T) {
	tr := transport.NewInProc(0)
	ids := []transport.NodeID{"n0", "n1", "n2"}
	mgr, err := membership.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testChain{tr: tr, mgr: mgr, replicas: make(map[transport.NodeID]*Replica), order: ids}
	tc.cfg = Config{
		Mode: ModeKamino, HeapSize: 16 << 20, Alpha: 0.5, Strict: true,
		BatchOps:  8,
		Transport: tr, Manager: mgr,
	}
	for _, id := range ids {
		rep, err := NewReplica(id, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.replicas[id] = rep
	}
	tc.client = headClient(func() *Replica { return tc.get(mgr.View().Head()) })
	t.Cleanup(func() {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		for _, rep := range tc.replicas {
			rep.Close()
		}
		tr.Close()
	})

	const workers, span = 6, 16
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				putRetry(t, tc, base+uint64(i%span), []byte{byte(base), byte(i)})
			}
		}(uint64(w) * span)
	}

	settle := func() { time.Sleep(20 * time.Millisecond) }
	next := 3
	killRejoin := func(id transport.NodeID) {
		tc.kill(t, id)
		nid := transport.NodeID(fmt.Sprintf("n%d", next))
		next++
		rep, err := JoinAsTail(nid, tc.cfg)
		if err != nil {
			t.Errorf("rejoin %s after killing %s: %v", nid, id, err)
			return
		}
		tc.put(nid, rep)
	}

	settle()
	view := tc.mgr.View()
	killRejoin(view.Members[1]) // middle
	settle()
	head := tc.get(tc.mgr.View().Head())
	if err := head.Reboot(); err != nil {
		t.Errorf("head reboot: %v", err)
	}
	settle()
	killRejoin(tc.mgr.View().Tail()) // tail
	settle()
	killRejoin(tc.mgr.View().Head()) // head: failover
	settle()
	close(stop)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		dumpChainState(t, tc)
		t.Fatal("workers wedged: admission lock leaked")
	}
	waitFor(t, "admission locks drained", func() bool {
		tc.mu.RLock()
		defer tc.mu.RUnlock()
		for _, rep := range tc.replicas {
			if rep.LockedKeys() != 0 {
				return false
			}
		}
		return true
	})
	waitErrFree(t, tc)
}

// TestMiddleAnswersProbeWithCleanup covers the long-chain variant of the
// lost-ack leak: the promoted head re-drives a stranded record, but the
// first middle has already seen its cleanup (in-flight queue acked past
// it) so there is nothing left to forward toward the tail. The middle must
// answer the probe from its persistent acked floor with a cleanup to its
// predecessor — including a predecessor that is the head — or the probe
// dies one hop from the replica that needs it and the head's re-admitted
// locks never release.
func TestMiddleAnswersProbeWithCleanup(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, false)
	putRetry(t, tc, 1, []byte("a"))
	putRetry(t, tc, 2, []byte("b"))
	head, mid := tc.get("n0"), tc.get("n1")
	waitFor(t, "middle sees a cleanup", func() bool { return mid.getRing().Acked() > 0 })
	seq := mid.getRing().Acked()

	// Plant the leak: the head holds a re-admitted lock for a record the
	// whole chain has completed, and its tail ack is gone for good.
	head.headMu.Lock()
	head.lockedBy[9] = struct{}{}
	head.inflight[seq] = inflightOp{lock: 9}
	head.headMu.Unlock()

	// The head's repair ticker would resend the record; deliver that probe
	// to the middle directly.
	mid.handle(&transport.Message{
		Kind: transport.KindOpBatch, From: "n0", ViewID: tc.mgr.View().ID, Seq: seq,
		Batch: []pqueue.Record{{Seq: seq, Name: "put"}},
	})
	waitFor(t, "head admission lock released", func() bool { return head.LockedKeys() == 0 })
	waitErrFree(t, tc)
}

// TestRemovedReplicaNeverAcksAsTail: onViewChange installs the view that
// drops a replica before it stops that replica's pipeline, so its drain
// can move one more batch under a view in which the replica has no
// successor. That is not being the tail. The zombie's tail ack used to reach
// a head still on the old view — where the sender is a member and passes
// fencing — and complete writes that no surviving replica had executed; the
// chaos schedule under the race detector lost acknowledged keys on every
// member about one run in four.
func TestRemovedReplicaNeverAcksAsTail(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, false)
	mid := tc.get(tc.order[1])
	without := membership.View{ID: tc.mgr.View().ID + 1, Members: []transport.NodeID{tc.order[0], tc.order[2]}}
	mid.mu.Lock()
	mid.view = without
	mid.mu.Unlock()
	if err := mid.forwardBatch([]pqueue.Record{{Seq: 1, Name: "put", Args: encodeKV(1, []byte("v"))}}); err != nil {
		t.Fatal(err)
	}
	if n := mid.cTailAcks.Load(); n != 0 {
		t.Fatalf("a replica outside the view sent %d tail ack(s)", n)
	}
	if n := mid.cForwarded.Load(); n != 0 {
		t.Fatalf("a replica outside the view forwarded %d record(s) to a successor it does not have", n)
	}
}

// TestOvertakingRecordsAreNotAppended: after a view change the new
// predecessor's pipeline forwards fresh records while its onViewChange is
// still resending the older in-flight ones, so a newer message can arrive
// first. Appending it used to raise the ring's last sequence past the older
// records, which then looked like duplicates and never executed here — while
// the tail's range ack completed them at the head. The replica drops the
// message that starts past the gap and takes it when it is resent in turn.
func TestOvertakingRecordsAreNotAppended(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, false)
	head, tail := tc.order[0], tc.get(tc.order[2])
	tail.stopExecutor() // hold the ring still: this test is about what is appended
	op := func(seq uint64) pqueue.Record {
		return pqueue.Record{Seq: seq, Name: "put", Args: encodeKV(seq, []byte{byte(seq)})}
	}
	deliver := func(ops ...pqueue.Record) {
		tail.handle(&transport.Message{
			Kind: transport.KindOpBatch, From: head, ViewID: tc.mgr.View().ID,
			Seq: ops[len(ops)-1].Seq, Batch: ops,
		})
	}
	deliver(op(1), op(2))
	deliver(op(5), op(6)) // overtook 3 and 4
	if got := tail.getRing().LastSeq(); got != 2 {
		t.Fatalf("ring's last sequence = %d after a message that skipped 3 and 4, want 2", got)
	}
	if n := tail.cGaps.Load(); n != 1 {
		t.Fatalf("gap_dropped = %d, want 1", n)
	}
	deliver(op(2), op(3), op(4)) // the resend: one duplicate, then the missing records
	deliver(op(5), op(6))        // and the overtaker again, now in turn
	if got := tail.getRing().LastSeq(); got != 6 {
		t.Fatalf("ring's last sequence = %d after the in-order resend, want 6", got)
	}
	recs, err := tail.getRing().Pending()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("pending record %d has sequence %d: the ring is not a contiguous prefix", i, rec.Seq)
		}
	}
	if len(recs) != 6 {
		t.Fatalf("%d records pending, want 6", len(recs))
	}
}
