package chain

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"kaminotx/internal/membership"
	"kaminotx/internal/pqueue"
	"kaminotx/internal/transport"
)

// The one-ring protocol at chain level: a middle sends a batch on and only
// then persists its done cursor, so there is a window in which the record is
// durable here as pending and already downstream. These tests put each
// replica's power failure, and the tail's clean-up, inside that window.

// hookTransport runs a callback on the sender's goroutine around each Send:
// after it has queued its message — the one place a test can stand between
// a forwarder's send and its cursor persist — or before, to hold a message
// back; and it can lose a message outright.
type hookTransport struct {
	*transport.InProc
	mu            sync.Mutex
	before, after func(to transport.NodeID, msg *transport.Message)
	drop          func(to transport.NodeID, msg *transport.Message) bool
}

func (h *hookTransport) Send(to transport.NodeID, msg *transport.Message) error {
	h.mu.Lock()
	before, after, drop := h.before, h.after, h.drop
	h.mu.Unlock()
	if drop != nil && drop(to, msg) {
		return nil
	}
	if before != nil {
		before(to, msg)
	}
	err := h.InProc.Send(to, msg)
	if after != nil {
		after(to, msg)
	}
	return err
}

// set installs the after-send callback (nil removes it).
func (h *hookTransport) set(f func(to transport.NodeID, msg *transport.Message)) {
	h.mu.Lock()
	h.after = f
	h.mu.Unlock()
}

// hold installs the before-send callback, which may block to hold a message
// back.
func (h *hookTransport) hold(f func(to transport.NodeID, msg *transport.Message)) {
	h.mu.Lock()
	h.before = f
	h.mu.Unlock()
}

// lose installs the predicate that picks messages to lose (nil: none).
func (h *hookTransport) lose(f func(to transport.NodeID, msg *transport.Message) bool) {
	h.mu.Lock()
	h.drop = f
	h.mu.Unlock()
}

// newHookedChain builds three Kamino replicas n0→n1→n2, the head's backup
// sized by alpha, batching up to batchOps records a hop, over a
// hookTransport with the given hop latency.
func newHookedChain(tb testing.TB, alpha float64, strict bool, hop time.Duration, batchOps int) (*testChain, *hookTransport) {
	tb.Helper()
	ht := &hookTransport{InProc: transport.NewInProc(hop)}
	ids := []transport.NodeID{"n0", "n1", "n2"}
	mgr, err := membership.New(ids)
	if err != nil {
		tb.Fatal(err)
	}
	tc := &testChain{tr: ht.InProc, mgr: mgr, replicas: make(map[transport.NodeID]*Replica), order: ids}
	tc.cfg = Config{
		Mode: ModeKamino, HeapSize: 8 << 20, Alpha: alpha, Strict: strict, BatchOps: batchOps,
		Registry: NewKVRegistry(), Transport: ht, Manager: mgr, Setup: KVSetup,
	}
	for _, id := range ids {
		rep, err := NewReplica(id, tc.cfg)
		if err != nil {
			tb.Fatal(err)
		}
		tc.replicas[id] = rep
	}
	tc.client = NewKVClient(func() *Replica { return tc.get(mgr.View().Head()) })
	tb.Cleanup(func() {
		ht.set(nil)
		for _, rep := range tc.replicas {
			rep.Close()
		}
		ht.Close()
	})
	return tc, ht
}

// isForward reports a middle-to-tail operation message.
func isForward(to transport.NodeID, msg *transport.Message) bool {
	return msg.From == "n1" && to == "n2" && msg.Kind == transport.KindOpBatch
}

// checkAcked reads every acknowledged put back through the chain (a tail
// read) and from each replica's own pool.
func checkAcked(t *testing.T, tc *testChain, acked map[uint64]string) {
	t.Helper()
	for key, want := range acked {
		v, ok, err := tc.client.Get(key)
		if err != nil || !ok || string(v) != want {
			t.Errorf("tail read of key %d = %q %v %v, want %q", key, v, ok, err, want)
		}
		for _, id := range tc.order {
			waitFor(t, fmt.Sprintf("replica %s key %d = %q", id, key, want), func() bool {
				v, ok := localGet(t, tc.get(id), key)
				return ok && string(v) == want
			})
		}
	}
	waitFor(t, "admission locks to drain", func() bool { return tc.get("n0").LockedKeys() == 0 })
	for _, id := range tc.order {
		waitFor(t, fmt.Sprintf("replica %s ring to empty", id), func() bool {
			fl, in := tc.get(id).getRing().Usage()
			return fl.Bytes == 0 && in.Bytes == 0
		})
	}
	waitErrFree(t, tc)
}

// TestRebootBetweenSendAndCursorPersist power-fails the head, the middle and
// the tail while the middle stands between its send and its done-cursor
// persist: the record is pending in the middle's durable ring and already at
// the tail. The middle's own failure re-executes and re-sends it, which the
// tail deduplicates; either way the put in the window and every put around
// it is acknowledged, reads back at the tail, and strands no client.
func TestRebootBetweenSendAndCursorPersist(t *testing.T) {
	for _, victim := range []transport.NodeID{"n0", "n1", "n2"} {
		for _, seed := range []int64{0, 7} {
			name := fmt.Sprintf("%s/full-loss", victim)
			if seed != 0 {
				name = fmt.Sprintf("%s/partial-loss", victim)
			}
			t.Run(name, func(t *testing.T) {
				tc, ht := newHookedChain(t, 0.5, true, 0, 1)
				acked := map[uint64]string{}
				put := func(key uint64, val string) {
					t.Helper()
					putRetry(t, tc, key, []byte(val))
					acked[key] = val
				}
				for k := uint64(0); k < 8; k++ {
					put(k, fmt.Sprintf("before-%d", k))
				}
				mid, tail := tc.get("n1"), tc.get("n2")
				waitFor(t, "middle ring to settle", func() bool { return ringEmpty(mid) })

				inWindow, release := make(chan uint64, 1), make(chan struct{})
				releaseOnce := sync.OnceFunc(func() { close(release) })
				t.Cleanup(releaseOnce) // a failed check must not leave the forwarder held
				// The tail's clean-up would close the window from the far
				// side: it is lost, as a message may be, until the victim
				// is about to fail.
				cleanupLost := make(chan struct{})
				lost := sync.OnceFunc(func() { close(cleanupLost) })
				ht.lose(func(to transport.NodeID, msg *transport.Message) bool {
					if to != "n1" || msg.Kind != transport.KindCleanup {
						return false
					}
					ht.lose(nil)
					lost()
					return true
				})
				ht.set(func(to transport.NodeID, msg *transport.Message) {
					if !isForward(to, msg) {
						return
					}
					ht.set(nil)
					inWindow <- msg.Seq
					if victim == "n1" {
						// The middle's forwarder dies here, as the power
						// failure finds it: sent, cursor not moved.
						runtime.Goexit()
					}
					<-release
				})
				done := make(chan struct{})
				go func() {
					defer close(done)
					put(3, "in-the-window")
				}()
				var seq uint64
				select {
				case seq = <-inWindow:
				case <-time.After(5 * time.Second):
					t.Fatal("the middle never forwarded")
				}
				// The window, as a crash would find it: the record is still
				// pending at the middle and has reached the tail.
				if fl, in := mid.getRing().Usage(); fl.Bytes != 0 || in.Bytes == 0 {
					t.Fatalf("middle ring in the window: %d bytes in flight, %d pending; want 0, >0", fl.Bytes, in.Bytes)
				}
				waitFor(t, "record to reach the tail", func() bool { return tail.getRing().LastSeq() >= seq })
				select {
				case <-cleanupLost:
				case <-time.After(5 * time.Second):
					t.Fatal("the tail never sent its clean-up")
				}

				rep := tc.get(victim)
				var err error
				if seed != 0 {
					err = rep.RebootPartial(seed)
				} else {
					err = rep.Reboot()
				}
				if err != nil {
					t.Fatalf("reboot %s: %v", victim, err)
				}
				releaseOnce()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					dumpChainState(t, tc)
					t.Fatal("the put in the window was stranded")
				}
				for k := uint64(4); k < 12; k++ {
					put(k, fmt.Sprintf("after-%d", k))
				}
				checkAcked(t, tc, acked)
			})
		}
	}
}

// A reboot's power failure excludes whatever reaches the replica's regions
// from outside its pipeline. With a record held in flight at the head (every
// forward of it lost), a goroutine that samples DebugInfo, or QueueUsage,
// or the registry's ring gauges, or delivers a message to the handler,
// through head reboots sees the pre-crash ring or the recovered one — the
// record is in both. Under -race this fails if any of them touches a region
// while Crash rewinds it.
func TestRebootExcludesHandlersAndSamplers(t *testing.T) {
	tc, ht := newHookedChain(t, 0.5, true, 0, 1)
	putRetry(t, tc, 1, []byte("one"))
	head := tc.get("n0")
	ht.lose(func(to transport.NodeID, msg *transport.Message) bool {
		return msg.From == "n0" && to == "n1" && msg.Kind == transport.KindOpBatch
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := tc.client.Put(2, []byte("held in flight")); err != nil {
			t.Errorf("the held put: %v", err)
		}
	}()
	waitFor(t, "the put to sit in flight at the head", func() bool {
		fl, _ := head.getRing().Usage()
		return fl.Bytes > 0
	})

	root := uint64(head.Pool().Root()) // an object every incarnation of the heap has
	// One path at a time: the detector keeps a word's last few accesses
	// only, so a path with its ordering intact would hide one without.
	for _, path := range []struct {
		name string
		run  func()
	}{
		{"DebugInfo", func() {
			if info := head.DebugInfo(); info.Inflight != 1 {
				t.Errorf("DebugInfo: %d records in flight, want the 1 held", info.Inflight)
			}
		}},
		{"QueueUsage", func() {
			if _, fl, _ := head.QueueUsage(); fl.Bytes == 0 {
				t.Error("QueueUsage: no bytes in flight")
			}
		}},
		{"gauges", func() {
			if got := head.Obs().Snapshot().Gauges["inflight_records"]; got != 1 {
				t.Errorf("inflight_records gauge = %d, want 1", got)
			}
		}},
		// Two messages, delivered the way a late Call is: a stale clean-up
		// acknowledges nothing, but walks the ring to find that out; a
		// neighbour's recovery fetch reads a block image off the pool's heap.
		{"clean-up handler", func() {
			head.handle(&transport.Message{Kind: transport.KindCleanup, From: "n1", Seq: 0})
		}},
		{"fetch handler", func() {
			reply := head.handle(&transport.Message{
				Kind: transport.KindFetch, From: "n1",
				Objs: []uint64{root}, Classes: []uint32{64},
			})
			if err := reply.Error(); err != nil {
				t.Errorf("fetch of the root block: %v", err)
			}
		}},
	} {
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			for {
				select {
				case <-stop:
					return
				default:
					path.run()
				}
			}
		}()
		for i := 0; i < 2; i++ {
			if err := head.Reboot(); err != nil {
				t.Fatalf("reboot %d under %s: %v", i, path.name, err)
			}
		}
		close(stop)
		<-stopped
	}

	ht.lose(nil)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		dumpChainState(t, tc)
		t.Fatal("the held put never completed once its forward got through")
	}
	waitErrFree(t, tc)
}

// TestCleanupOvertakesForwarder holds the middle's forwarder in its send
// until the tail has executed the record, acknowledged it, and its clean-up
// has pruned the middle's ring — past the done cursor the forwarder has yet
// to move. The late cursor move must find nothing to do (no persist), the
// ring must come out empty and in order, and it must reattach.
func TestCleanupOvertakesForwarder(t *testing.T) {
	tc, ht := newHookedChain(t, 0.5, true, 0, 1)
	putRetry(t, tc, 1, []byte("one"))
	mid := tc.get("n1")
	waitFor(t, "middle ring to settle", func() bool { return ringEmpty(mid) })

	before := mid.ringReg.Stats().Fences
	overtaken := make(chan struct{})
	ht.set(func(to transport.NodeID, msg *transport.Message) {
		if !isForward(to, msg) {
			return
		}
		ht.set(nil)
		deadline := time.Now().Add(5 * time.Second)
		for mid.getRing().Acked() < msg.Seq && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		if fl, in := mid.getRing().Usage(); fl.Bytes != 0 || in.Bytes != 0 {
			t.Errorf("after the overtaking clean-up: %d bytes in flight, %d pending; want an empty ring", fl.Bytes, in.Bytes)
		}
		close(overtaken)
	})
	putRetry(t, tc, 2, []byte("two"))
	select {
	case <-overtaken:
	case <-time.After(10 * time.Second):
		t.Fatal("the clean-up never overtook the forwarder")
	}
	putRetry(t, tc, 3, []byte("three")) // the forwarder is past its cursor move for put 2
	waitFor(t, "middle ring to settle", func() bool { return ringEmpty(mid) })
	// Put 2 cost the ring an append (2 fences) and the clean-up (1); put 3
	// the usual append, cursor move and clean-up (4).
	if got := mid.ringReg.Stats().Fences - before; got != 7 {
		t.Errorf("middle ring fences for an overtaken put and a plain one = %d, want 3 + 4", got)
	}
	if err := mid.Reboot(); err != nil {
		t.Fatalf("reboot after the overtaking clean-up: %v", err)
	}
	putRetry(t, tc, 4, []byte("four"))
	checkAcked(t, tc, map[uint64]string{1: "one", 2: "two", 3: "three", 4: "four"})
}

// TestAckNeverPrunesUnexecuted: a joiner replays its donor's pending suffix,
// so as the new tail it can acknowledge — and send a clean-up for — a record
// the donor itself has not executed yet. The donor must keep that record:
// pruning runs through both ranges of the one ring, and dropping it here
// would leave the donor's heap without the write.
func TestAckNeverPrunesUnexecuted(t *testing.T) {
	tc, _ := newHookedChain(t, 0.5, true, 0, 1)
	putRetry(t, tc, 1, []byte("one"))
	mid := tc.get("n1")
	waitFor(t, "middle ring to settle", func() bool { return ringEmpty(mid) })

	mid.stopExecutor() // frozen, as a donor is while it serves a snapshot
	seq := mid.getRing().LastSeq() + 1
	view := tc.mgr.View()
	mid.handle(&transport.Message{
		Kind: transport.KindOpBatch, From: "n0", ViewID: view.ID, Seq: seq,
		Batch: []pqueue.Record{{Seq: seq, Name: "put", Args: EncodeKV(2, []byte("two"))}},
	})
	mid.handle(&transport.Message{Kind: transport.KindCleanup, From: "n2", ViewID: view.ID, Seq: seq})
	if _, pending, err := mid.getRing().Counts(); err != nil || pending != 1 {
		t.Fatalf("after a clean-up for an unexecuted record: %d pending (%v), want it kept", pending, err)
	}
	if got := mid.getRing().Acked(); got >= seq {
		t.Fatalf("acked floor %d covers the unexecuted record %d", got, seq)
	}
	mid.startExecutor()
	mid.kick()
	waitFor(t, "the kept record to execute at the donor", func() bool {
		v, ok := localGet(t, mid, 2)
		return ok && string(v) == "two"
	})
	waitErrFree(t, tc)
}
