package chain

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kaminotx/internal/heap"
	"kaminotx/internal/membership"
	"kaminotx/internal/pqueue"
	"kaminotx/internal/race"
	"kaminotx/internal/transport"
	"kaminotx/kamino"
)

// The one-ring protocol at chain level: a middle sends a batch on and only
// then persists its done cursor, so there is a window in which the record is
// durable here as pending and already downstream. These tests put each
// replica's power failure inside that window, and show the tail's clean-up
// cannot land in it.

// hookTransport runs a callback on the sender's goroutine after each Send
// has queued its message — the one place a test can stand between a
// middle's send and its cursor persist — and it can lose a message
// outright. On the receiving side it runs a callback on the node's delivery
// goroutine before each message is handled, which may block to hold that
// goroutine.
type hookTransport struct {
	*transport.InProc
	mu    sync.Mutex
	after func(to transport.NodeID, msg *transport.Message)
	drop  func(to transport.NodeID, msg *transport.Message) bool
	recv  func(at transport.NodeID, msg *transport.Message)
}

// Serve wraps the handler so the receive callback sees every message first.
func (h *hookTransport) Serve(id transport.NodeID, handle transport.Handler, idle func() bool) error {
	return h.InProc.Serve(id, func(msg *transport.Message) *transport.Message {
		h.mu.Lock()
		recv := h.recv
		h.mu.Unlock()
		if recv != nil {
			recv(id, msg)
		}
		return handle(msg)
	}, idle)
}

func (h *hookTransport) Send(to transport.NodeID, msg *transport.Message) error {
	h.mu.Lock()
	after, drop := h.after, h.drop
	h.mu.Unlock()
	if drop != nil && drop(to, msg) {
		return nil
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

// lose installs the predicate that picks messages to lose (nil: none).
func (h *hookTransport) lose(f func(to transport.NodeID, msg *transport.Message) bool) {
	h.mu.Lock()
	h.drop = f
	h.mu.Unlock()
}

// receive installs the receive-side callback (nil removes it).
func (h *hookTransport) receive(f func(at transport.NodeID, msg *transport.Message)) {
	h.mu.Lock()
	h.recv = f
	h.mu.Unlock()
}

// newHookedChain builds three Kamino replicas n0→n1→n2 with 8 MiB heaps,
// the head's backup sized by alpha, batching up to batchOps records a hop,
// over a hookTransport with the given hop latency.
func newHookedChain(tb testing.TB, alpha float64, strict bool, hop time.Duration, batchOps int) (*testChain, *hookTransport) {
	return hookedChain(tb, hop, Config{Mode: ModeKamino, HeapSize: 8 << 20, Alpha: alpha, Strict: strict, BatchOps: batchOps})
}

// hookedChain builds three KV replicas n0→n1→n2 from cfg over a
// hookTransport with the given hop latency.
func hookedChain(tb testing.TB, hop time.Duration, cfg Config) (*testChain, *hookTransport) {
	tb.Helper()
	ht := &hookTransport{InProc: transport.NewInProc(hop)}
	ids := []transport.NodeID{"n0", "n1", "n2"}
	mgr, err := membership.New(ids)
	if err != nil {
		tb.Fatal(err)
	}
	tc := &testChain{tr: ht.InProc, mgr: mgr, replicas: make(map[transport.NodeID]*Replica), order: ids}
	cfg.Transport, cfg.Manager = ht, mgr
	tc.cfg = cfg
	for _, id := range ids {
		rep, err := NewReplica(id, tc.cfg)
		if err != nil {
			tb.Fatal(err)
		}
		tc.replicas[id] = rep
	}
	tc.client = headClient(func() *Replica { return tc.get(mgr.View().Head()) })
	tb.Cleanup(func() {
		ht.set(nil)
		ht.receive(nil)
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
			return fl == 0 && in == 0
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
				t.Cleanup(releaseOnce) // a failed check must not leave the middle held
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
						// The middle's drain dies here, as the power
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
				if fl, in := mid.getRing().Usage(); fl != 0 || in == 0 {
					t.Fatalf("middle ring in the window: %d bytes in flight, %d pending; want 0, >0", fl, in)
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
// forward of it lost), a goroutine that samples DebugInfo, or the
// registry's ring gauges, or delivers a message to the handler,
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
		return fl > 0
	})

	root := uint64(head.Pool().Root()) - heap.BlockHeaderSize // a block every incarnation of the heap has
	// One path at a time: the detector keeps a word's last few accesses
	// only, so a path with its ordering intact would hide one without.
	for _, path := range []struct {
		name string
		run  func()
	}{
		{"DebugInfo", func() {
			if info := head.DebugInfo(); info.Inflight != 1 || info.InflightBytes == 0 {
				t.Errorf("DebugInfo: %d records, %d B in flight, want the 1 held", info.Inflight, info.InflightBytes)
			}
		}},
		{"gauges", func() {
			if got := head.Obs().Snapshot().Gauges["inflightq_bytes"]; got == 0 {
				t.Error("inflightq_bytes gauge = 0, want the held put's bytes")
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
				Kind: transport.KindFetch, From: "n1", Off: root, Len: heap.BlockHeaderSize + 64,
			})
			if err := reply.Error(); err != nil || len(reply.Payload) != heap.BlockHeaderSize+64 {
				t.Errorf("fetch of the root block: %d bytes, %v", len(reply.Payload), err)
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

// TestDebugInfoAllocsFlat: DebugInfo reads the ring's in-flight span off
// the record headers, so with 32 records held in flight at the head a
// sample allocates no more than with one — only the two lock lists, one
// allocation each whatever their length. It skips itself under -race,
// which counts the detector's own allocations.
func TestDebugInfoAllocsFlat(t *testing.T) {
	if race.Enabled {
		t.Skip("testing.AllocsPerRun is meaningless under the race detector")
	}
	tc, ht := newHookedChain(t, 1, false, 0, 1)
	putRetry(t, tc, 0, []byte("zero"))
	head := tc.get("n0")
	ht.lose(func(to transport.NodeID, msg *transport.Message) bool {
		return msg.From == "n0" && to == "n1" && msg.Kind == transport.KindOpBatch
	})
	var wg sync.WaitGroup
	locks, key := map[uint64]bool{}, uint64(0)
	hold := func(n int) { // n more puts in flight, each under its own lock
		for n > 0 {
			key++
			lock := head.lockKey(encodeKV(key, nil))
			if locks[lock] {
				continue
			}
			locks[lock] = true
			n--
			wg.Add(1)
			go func(key uint64) {
				defer wg.Done()
				if err := tc.client.Put(key, make([]byte, 256)); err != nil {
					t.Errorf("Put(%d): %v", key, err)
				}
			}(key)
		}
	}
	var allocs []float64
	for _, n := range []int{1, 32} {
		hold(n - len(locks))
		waitFor(t, fmt.Sprintf("%d puts held in flight", n), func() bool { return head.DebugInfo().Inflight == n })
		allocs = append(allocs, testing.AllocsPerRun(100, func() { head.DebugInfo() }))
	}
	t.Logf("DebugInfo allocates %.0f times with 1 record in flight, %.0f with 32", allocs[0], allocs[1])
	if allocs[1] > allocs[0] {
		t.Errorf("DebugInfo allocates %.0f times with 32 records in flight, %.0f with 1", allocs[1], allocs[0])
	}
	ht.lose(nil)
	wg.Wait()
	waitErrFree(t, tc)
}

// TestDoneDurableBeforeCleanup: a middle's send, its done-cursor persist and
// its handling of the tail's clean-up all run on its inbox goroutine, so the
// clean-up for a record is handled only after the cursor move for it is
// durable — however long the middle stands between send and persist. Held
// there until the clean-up is already queued, the middle still pays every
// put's four ring fences (append 2, done cursor 1, clean-up 1), and its
// ring comes out empty and reattaches.
func TestDoneDurableBeforeCleanup(t *testing.T) {
	tc, ht := newHookedChain(t, 0.5, true, 0, 1)
	putRetry(t, tc, 1, []byte("one"))
	mid := tc.get("n1")
	waitFor(t, "middle ring to settle", func() bool { return ringEmpty(mid) })

	const puts = 4
	before := mid.ringReg.Stats().Fences
	cleanupSent := make(chan uint64, puts)
	ht.set(func(to transport.NodeID, msg *transport.Message) {
		switch {
		case msg.Kind == transport.KindCleanup && to == "n1":
			cleanupSent <- msg.Seq
		case isForward(to, msg):
			// Stand between the send and the cursor persist until the
			// tail has executed the record and sent its clean-up.
			select {
			case seq := <-cleanupSent:
				if seq != msg.Seq {
					t.Errorf("clean-up for %d while the middle holds %d", seq, msg.Seq)
				}
			case <-time.After(5 * time.Second):
				t.Error("the tail never sent its clean-up")
			}
		}
	})
	var checked atomic.Int32
	ht.receive(func(at transport.NodeID, msg *transport.Message) {
		if at != "n1" || msg.Kind != transport.KindCleanup {
			return
		}
		checked.Add(1)
		ring := mid.getRing()
		if _, pending := ring.Usage(); pending != 0 {
			t.Errorf("clean-up for %d handled with %d bytes still pending", msg.Seq, pending)
		}
		if ok, err := mid.ringReg.IsPersisted(0, 64); err != nil || !ok {
			t.Errorf("clean-up for %d handled before the ring header is durable (%v)", msg.Seq, err)
		}
		if acked := ring.Acked(); acked >= msg.Seq {
			t.Errorf("acked %d before the clean-up for %d", acked, msg.Seq)
		}
	})
	for k := uint64(2); k < 2+puts; k++ {
		putRetry(t, tc, k, []byte(fmt.Sprint("v", k)))
	}
	waitFor(t, "middle ring to settle", func() bool { return ringEmpty(mid) && mid.getRing().Acked() == mid.getRing().LastSeq() })
	ht.set(nil)
	ht.receive(nil)
	if n := checked.Load(); n != puts {
		t.Errorf("the middle handled %d clean-ups, want %d", n, puts)
	}
	if got := mid.ringReg.Stats().Fences - before; got != 4*puts {
		t.Errorf("middle ring fences for %d puts = %d, want 4 each", puts, got)
	}
	if err := mid.Reboot(); err != nil {
		t.Fatalf("reboot after the held puts: %v", err)
	}
	putRetry(t, tc, 9, []byte("nine"))
	checkAcked(t, tc, map[uint64]string{1: "one", 2: "v2", 3: "v3", 4: "v4", 5: "v5", 9: "nine"})
}

// TestMiddleRegeneratesLostCleanup: the transport drops an acknowledgment
// that meets a full inbox, and a middle whose last clean-up is lost has no
// later one to cover it. Its repair ticker re-drives the stalled in-flight
// range; the tail answers the duplicate with the clean-up again, and the
// middle's ring empties.
func TestMiddleRegeneratesLostCleanup(t *testing.T) {
	tc, ht := newHookedChain(t, 0.5, true, 0, 1)
	mid := tc.get("n1")
	var lost atomic.Bool
	ht.lose(func(to transport.NodeID, msg *transport.Message) bool {
		if to == "n1" && msg.Kind == transport.KindCleanup {
			lost.Store(true)
			return true
		}
		return false
	})
	putRetry(t, tc, 1, []byte("one"))
	// The put can complete before the middle moves its done cursor, which
	// follows its send.
	waitFor(t, "the middle's done cursor", func() bool { _, pending := mid.getRing().Usage(); return pending == 0 })
	if fl, _ := mid.getRing().Usage(); fl == 0 {
		t.Fatal("nothing in flight at the middle with its clean-up lost")
	}
	// The tail sends the clean-up after the acknowledgment that completed
	// the put: lifting the loss before it is sent would deliver it.
	waitFor(t, "the tail's clean-up to be lost", lost.Load)
	ht.lose(nil)
	waitFor(t, "the middle's ring to empty", func() bool { return ringEmpty(mid) })
	if mid.cResends.Load() == 0 {
		t.Error("the middle's ring emptied without a re-drive")
	}
	checkAcked(t, tc, map[uint64]string{1: "one"})
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
		Batch: []pqueue.Record{{Seq: seq, Name: "put", Args: encodeKV(2, []byte("two"))}},
	})
	mid.handle(&transport.Message{Kind: transport.KindCleanup, From: "n2", ViewID: view.ID, Seq: seq})
	if _, pending, err := mid.getRing().Spans(); err != nil || pending.Records != 1 {
		t.Fatalf("after a clean-up for an unexecuted record: %d pending (%v), want it kept", pending.Records, err)
	}
	if got := mid.getRing().Acked(); got >= seq {
		t.Fatalf("acked floor %d covers the unexecuted record %d", got, seq)
	}
	mid.startExecutor()
	waitFor(t, "the kept record to execute at the donor", func() bool {
		v, ok := localGet(t, mid, 2)
		return ok && string(v) == "two"
	})
	waitErrFree(t, tc)
}

// failingChain builds a hooked chain, batching one record a hop, with the
// keys behind..2*behind-1 stored. failPut puts a fresh key, in a bucket of
// its own, on the head; fill a replica's heap (fillHeap) before the put
// reaches it and its apply fails there, and only there, while an overwrite
// of a stored key still succeeds.
func failingChain(t *testing.T, behind int) (tc *testChain, ht *hookTransport, failPut func()) {
	tc, ht = hookedChain(t, 0, Config{Mode: ModeKamino, HeapSize: 8 << 20, Alpha: 0.5, BatchOps: 1})
	head := tc.get("n0")
	buckets := map[uint64]bool{}
	for k := behind; k < 2*behind; k++ {
		putRetry(t, tc, uint64(k), []byte("v"))
		buckets[head.lockKey(encodeKV(uint64(k), nil))] = true
	}
	fresh := uint64(1000)
	for buckets[head.lockKey(encodeKV(fresh, nil))] {
		fresh++
	}
	// The put completes only when Close fails it.
	failPut = func() { go head.Put(fresh, []byte("v")) }
	return tc, ht, failPut
}

// fillHeap allocates from rep's pool outside the chain until its heap has
// no room left for even the smallest block: a put of a fresh key, which
// allocates its entry, fails there.
func fillHeap(rep *Replica) {
	for size := heap.MaxAlloc; size > 0; size /= 2 {
		for rep.Pool().Update(func(tx *kamino.Tx) error {
			_, err := tx.Alloc(size)
			return err
		}) == nil {
		}
	}
}

// forwardedMax records the highest sequence number the middle sends the
// tail from here on.
func forwardedMax(ht *hookTransport) func() uint64 {
	var mu sync.Mutex
	var top uint64
	ht.set(func(to transport.NodeID, msg *transport.Message) {
		if isForward(to, msg) {
			mu.Lock()
			top = max(top, msg.Seq)
			mu.Unlock()
		}
	})
	return func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		return top
	}
}

// checkStoppedAt fails the test unless rep's done cursor is below seq and
// nothing from seq on has gone to the tail.
func checkStoppedAt(t *testing.T, rep *Replica, seq uint64, sent func() uint64) {
	t.Helper()
	pending, err := rep.getRing().Pending()
	if err != nil || len(pending) == 0 || pending[0].Seq != seq {
		t.Errorf("pending range after the failure starts %v (%v), want at seq %d", pending, err, seq)
	}
	if top := sent(); top >= seq {
		t.Errorf("the middle sent the tail seq %d, at or past its failed seq %d", top, seq)
	}
}

// TestFailedApplyStopsPipeline: a replica whose local transaction fails has a
// fatal error, and its cursor has already read past the failed record. That
// incarnation takes no more drain steps: the records behind the failed one
// must neither run, nor go on to the tail, nor carry the durable done cursor
// past a record this replica never ran.
func TestFailedApplyStopsPipeline(t *testing.T) {
	const behind = 4
	tc, ht, failPut := failingChain(t, behind)
	head, mid := tc.get("n0"), tc.get("n1")
	waitFor(t, "middle ring to settle", func() bool { return ringEmpty(mid) })
	sent := forwardedMax(ht)

	fillHeap(mid)
	failSeq := head.getRing().LastSeq() + 1
	failPut()
	waitFor(t, "the head to take the failing write", func() bool { return head.getRing().LastSeq() == failSeq })
	// Overwrites of stored keys update in place: a cursor wrongly still
	// live after the failure would run them.
	for k := uint64(behind); k < 2*behind; k++ {
		go head.Put(k, []byte("w"))
	}
	waitFor(t, "the middle's apply to fail", func() bool { return mid.Err() != nil })
	waitFor(t, "the middle to append the puts behind it", func() bool { return mid.getRing().LastSeq() == failSeq+behind })
	// Each append above ends in an idle drain step; give a wrong one time
	// to run and send.
	time.Sleep(50 * time.Millisecond)
	checkStoppedAt(t, mid, failSeq, sent)
	if n := mid.LastExec(); n >= failSeq {
		t.Errorf("the middle ran through seq %d past its failed seq %d", n, failSeq)
	}
}

// TestPromotionDrainFailureIsFatal: a middle promoted to head drains its
// backlog before its batcher starts; a record in it that fails to apply is
// the replica's fatal error, and nothing from it on runs or is sent.
func TestPromotionDrainFailureIsFatal(t *testing.T) {
	tc, ht, failPut := failingChain(t, 1)
	head, mid := tc.get("n0"), tc.get("n1")
	waitFor(t, "middle ring to settle", func() bool { return ringEmpty(mid) })
	sent := forwardedMax(ht)

	mid.stopExecutor() // the backlog only appends
	failSeq := head.getRing().LastSeq() + 1
	failPut()
	waitFor(t, "the middle to append the failing write", func() bool { return mid.getRing().LastSeq() == failSeq })
	fillHeap(mid)
	if _, err := tc.mgr.ReportFailure("n0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the promoted middle's drain to fail", func() bool { return mid.Err() != nil })
	if tc.mgr.View().Head() != "n1" {
		t.Fatalf("head is %s after n0 failed, want n1", tc.mgr.View().Head())
	}
	checkStoppedAt(t, mid, failSeq, sent)
	if err := mid.Put(1, []byte("w")); err == nil {
		t.Error("the failed head admitted a put")
	}
}

// TestFetchRangeChecked: a recovery fetch names its heap range off the
// wire, so one past the heap's end, or one whose end overflows, is refused
// rather than read.
func TestFetchRangeChecked(t *testing.T) {
	tc, _ := newHookedChain(t, 0.5, false, 0, 1)
	head := tc.get("n0")
	size := uint64(head.Pool().Engine().Heap().Region().Size())
	fetch := func(off, n uint64) *transport.Message {
		return head.handle(&transport.Message{Kind: transport.KindFetch, From: "n1", Off: off, Len: n})
	}
	if reply := fetch(size-64, 64); reply.Error() != nil || len(reply.Payload) != 64 {
		t.Errorf("fetch of the heap's last 64 bytes: %d bytes, %v", len(reply.Payload), reply.Error())
	}
	for _, r := range [][2]uint64{{size - 8, 16}, {size + 1, 0}, {^uint64(0) - 4, 8}, {8, ^uint64(0)}} {
		if reply := fetch(r[0], r[1]); reply.Error() == nil {
			t.Errorf("fetch of %d bytes at %d answered %d bytes", r[1], r[0], len(reply.Payload))
		}
	}
}
