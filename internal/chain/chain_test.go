package chain

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"kaminotx/internal/heap"
	"kaminotx/internal/membership"
	"kaminotx/internal/phash"
	"kaminotx/internal/pqueue"
	"kaminotx/internal/transport"
	"kaminotx/kamino"
)

// testChain bundles one in-process chain.
type testChain struct {
	tr  *transport.InProc
	mgr *membership.Manager
	mu  sync.RWMutex // guards replicas (kill/rejoin race with live clients)

	replicas map[transport.NodeID]*Replica
	order    []transport.NodeID
	client   headClient
	cfg      Config // template shared by every replica (rejoin tests reuse it)
}

// headClient runs KV operations on whichever replica it resolves as head,
// failing with ErrNoHead while it resolves none.
type headClient func() *Replica

func (c headClient) Put(key uint64, val []byte) error {
	if h := c(); h != nil {
		return h.Put(key, val)
	}
	return ErrNoHead
}

func (c headClient) Get(key uint64) ([]byte, bool, error) {
	if h := c(); h != nil {
		return h.Get(key)
	}
	return nil, false, ErrNoHead
}

func (tc *testChain) get(id transport.NodeID) *Replica {
	tc.mu.RLock()
	defer tc.mu.RUnlock()
	return tc.replicas[id]
}

func (tc *testChain) put(id transport.NodeID, rep *Replica) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.replicas[id] = rep
}

func newTestChain(t *testing.T, mode Mode, n int, strict bool) *testChain {
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
	tc := &testChain{tr: tr, mgr: mgr, replicas: make(map[transport.NodeID]*Replica), order: ids}
	tc.cfg = Config{
		Mode:      mode,
		HeapSize:  8 << 20,
		Alpha:     0.5,
		Strict:    strict,
		Transport: tr,
		Manager:   mgr,
	}
	for _, id := range ids {
		rep, err := NewReplica(id, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.replicas[id] = rep
	}
	tc.client = headClient(func() *Replica {
		return tc.get(mgr.View().Head())
	})
	t.Cleanup(func() {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		for _, rep := range tc.replicas {
			rep.Close()
		}
		tr.Close()
	})
	return tc
}

// localGet reads a key directly from one replica's pool.
func localGet(t *testing.T, rep *Replica, key uint64) ([]byte, bool) {
	t.Helper()
	var out []byte
	var ok bool
	if err := rep.Pool().View(func(tx *kamino.Tx) error {
		v, o, err := rep.kv.Get(tx, key)
		out, ok = v, o
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out, ok
}

func waitErrFree(t *testing.T, tc *testChain) {
	t.Helper()
	for _, rep := range tc.replicas {
		if err := rep.Err(); err != nil {
			t.Fatalf("replica %s fatal: %v", rep.ID(), err)
		}
	}
}

func TestBasicReplication(t *testing.T) {
	for _, mode := range []Mode{ModeKamino, ModeTraditional} {
		name := "kamino"
		if mode == ModeTraditional {
			name = "traditional"
		}
		t.Run(name, func(t *testing.T) {
			tc := newTestChain(t, mode, 4, false) // f=2 Kamino needs 4
			for i := uint64(0); i < 50; i++ {
				if err := tc.client.Put(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatalf("Put(%d): %v", i, err)
				}
			}
			// Reads come from the tail.
			for i := uint64(0); i < 50; i++ {
				v, ok, err := tc.client.Get(i)
				if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
					t.Fatalf("Get(%d) = %q %v %v", i, v, ok, err)
				}
			}
			// Every replica holds every committed write (tail ack
			// implies chain-wide application).
			for _, id := range tc.order {
				v, ok := localGet(t, tc.replicas[id], 25)
				if !ok || string(v) != "v25" {
					t.Errorf("replica %s: key 25 = %q %v", id, v, ok)
				}
			}
			// Delete propagates too.
			if err := tc.replicas[tc.order[0]].Delete(25); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := tc.client.Get(25); ok {
				t.Error("deleted key readable at tail")
			}
			waitErrFree(t, tc)
		})
	}
}

func TestConcurrentClients(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, false)
	const goroutines = 8
	const perG = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < perG; i++ {
				k := base*1000 + i
				if err := tc.client.Put(k, []byte{byte(k)}); err != nil {
					errs <- err
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Spot-check a few keys on every replica.
	for g := 0; g < goroutines; g++ {
		k := uint64(g)*1000 + 7
		for _, id := range tc.order {
			v, ok := localGet(t, tc.replicas[id], k)
			if !ok || v[0] != byte(k) {
				t.Errorf("replica %s key %d = %v %v", id, k, v, ok)
			}
		}
	}
	waitErrFree(t, tc)
}

func TestDependentWritesSameKeySerialize(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, false)
	// Hammer one key concurrently; the last value must win everywhere
	// and no replica may diverge.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := tc.client.Put(7, []byte{byte(g), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	want, ok, err := tc.client.Get(7)
	if err != nil || !ok {
		t.Fatalf("Get = %v %v", ok, err)
	}
	for _, id := range tc.order {
		v, ok := localGet(t, tc.replicas[id], 7)
		if !ok || string(v) != string(want) {
			t.Errorf("replica %s diverged: %v vs %v", id, v, want)
		}
	}
	waitErrFree(t, tc)
}

func TestHeadAbortNotAdmitted(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, false)
	head := tc.replicas[tc.order[0]]
	// A value larger than any heap allocation fails at the head before any
	// effect.
	if err := head.Put(1, make([]byte, heap.MaxAlloc)); err == nil {
		t.Fatal("oversized put did not error")
	}
	// The chain still works and nothing leaked downstream.
	if err := tc.client.Put(1, []byte("fine")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tc.client.Get(1)
	if err != nil || !ok || string(v) != "fine" {
		t.Fatalf("after abort: %q %v %v", v, ok, err)
	}
	waitErrFree(t, tc)
}

func TestSubmitOnNonHeadRejected(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, false)
	mid := tc.replicas[tc.order[1]]
	if err := mid.Put(1, []byte("x")); !errors.Is(err, ErrNotHead) {
		t.Errorf("Put on middle = %v", err)
	}
	if _, _, err := mid.Get(1); !errors.Is(err, ErrNotHead) {
		t.Errorf("Get on middle = %v", err)
	}
}

// TestUnknownOps: a ring record is bytes read back from NVM, so executing
// one that names no operation, or too short to name a key, is an error,
// never a write or a panic.
func TestUnknownOps(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, false)
	mid := tc.replicas[tc.order[1]]
	for _, rec := range []pqueue.Record{
		{Seq: 1, Name: "bogus", Args: encodeKV(1, []byte("x"))},
		{Seq: 1, Name: opPut, Args: []byte{1, 2}},
		{Seq: 1, Name: opDelete},
	} {
		recs := []pqueue.Record{rec}
		if _, failed := mid.execute(recs, false)[&recs[0]]; !failed {
			t.Errorf("record %q %v executed", rec.Name, rec.Args)
		}
	}
	if _, ok := localGet(t, mid, 1); ok {
		t.Error("an unknown operation wrote key 1")
	}
}

func TestTailFailure(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 4, false)
	for i := uint64(0); i < 20; i++ {
		if err := tc.client.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the tail.
	tail := tc.order[len(tc.order)-1]
	tc.tr.Unregister(tail)
	if _, err := tc.mgr.ReportFailure(tail); err != nil {
		t.Fatal(err)
	}
	// Chain keeps working with the new tail.
	for i := uint64(100); i < 120; i++ {
		if err := tc.client.Put(i, []byte{byte(i)}); err != nil {
			t.Fatalf("Put(%d) after tail failure: %v", i, err)
		}
	}
	v, ok, err := tc.client.Get(110)
	if err != nil || !ok || v[0] != 110 {
		t.Fatalf("Get after tail failure = %v %v %v", v, ok, err)
	}
	waitErrFree(t, tc)
}

func TestMiddleFailure(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 4, false)
	for i := uint64(0); i < 20; i++ {
		if err := tc.client.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mid := tc.order[1]
	tc.tr.Unregister(mid)
	if _, err := tc.mgr.ReportFailure(mid); err != nil {
		t.Fatal(err)
	}
	for i := uint64(100); i < 120; i++ {
		if err := tc.client.Put(i, []byte{byte(i)}); err != nil {
			t.Fatalf("Put(%d) after middle failure: %v", i, err)
		}
	}
	// Remaining replicas all converge.
	for _, id := range tc.mgr.View().Members {
		v, ok := localGet(t, tc.replicas[id], 115)
		if !ok || v[0] != 115 {
			t.Errorf("replica %s missed post-failure write", id)
		}
	}
	waitErrFree(t, tc)
}

func TestHeadFailurePromotesNewHead(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 4, false)
	for i := uint64(0); i < 20; i++ {
		if err := tc.client.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	oldHead := tc.order[0]
	tc.tr.Unregister(oldHead)
	if _, err := tc.mgr.ReportFailure(oldHead); err != nil {
		t.Fatal(err)
	}
	// Allow promotion to finish.
	newHead := tc.replicas[tc.mgr.View().Head()]
	deadline := time.Now().Add(5 * time.Second)
	for !newHead.IsHead() {
		if time.Now().After(deadline) {
			t.Fatal("promotion never observed")
		}
		time.Sleep(time.Millisecond)
	}
	// The promoted head accepts writes (it now has its own backup) and
	// old data is intact.
	if err := tc.client.Put(500, []byte("after-failover")); err != nil {
		t.Fatalf("Put after head failure: %v", err)
	}
	v, ok, err := tc.client.Get(500)
	if err != nil || !ok || string(v) != "after-failover" {
		t.Fatalf("Get(500) = %q %v %v", v, ok, err)
	}
	v, ok, err = tc.client.Get(10)
	if err != nil || !ok || v[0] != 10 {
		t.Fatalf("pre-failover data lost: %v %v %v", v, ok, err)
	}
	waitErrFree(t, tc)
}

func TestQuickRebootMiddleRollsForward(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, true)
	for i := uint64(0); i < 10; i++ {
		if err := tc.client.Put(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	mid := tc.replicas[tc.order[1]]

	// Stage an incomplete transaction on the middle replica: a torn
	// in-place write with a durable intent, exactly what a power failure
	// mid-apply leaves behind.
	m := mid.kv
	// Find key 3's entry object on the middle replica.
	var entryObj kamino.ObjID
	if err := mid.Pool().View(func(tx *kamino.Tx) error {
		_, ok, err := m.Get(tx, 3)
		if err != nil || !ok {
			return fmt.Errorf("key 3 missing on middle: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Start a raw transaction that clobbers the value entry, then
	// "crash" before commit. We reach the entry through phash internals:
	// overwrite via a put transaction left uncommitted.
	mid.stopExecutor()
	tx, err := mid.Pool().Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := putTornValue(tx, m, 3, []byte("torn!torn!")); err != nil {
		t.Fatal(err)
	}
	_ = entryObj

	head := tc.replicas[tc.order[0]]
	fetched := head.cFetches.Load()
	if err := mid.Reboot(); err != nil {
		t.Fatalf("Reboot: %v", err)
	}
	// One block fetched per intent the torn put logged: the old entry's
	// write and free, the larger entry's allocation, and the write to the
	// pointer that names it.
	if n := head.cFetches.Load() - fetched; n != 4 {
		t.Errorf("fetches_served = %d at the predecessor, want the torn put's 4 intents", n)
	}
	// The middle replica must have rolled forward from its predecessor:
	// key 3 readable with a consistent value.
	v, ok := localGet(t, mid, 3)
	if !ok || (string(v) != "v3" && string(v) != "torn!torn!") {
		t.Fatalf("after reboot: %q %v", v, ok)
	}
	// Predecessor (head) value is authoritative.
	hv, _ := localGet(t, tc.replicas[tc.order[0]], 3)
	if string(v) != string(hv) {
		t.Errorf("middle diverges from predecessor after roll-forward: %q vs %q", v, hv)
	}
	// Chain still fully functional.
	if err := tc.client.Put(999, []byte("post-reboot")); err != nil {
		t.Fatal(err)
	}
	v2, ok := localGet(t, mid, 999)
	if !ok || string(v2) != "post-reboot" {
		t.Errorf("middle missed post-reboot write: %q %v", v2, ok)
	}
	waitErrFree(t, tc)
}

// putTornValue performs the write-intent and in-place edit of a put without
// committing, simulating a crash mid-transaction.
func putTornValue(tx *kamino.Tx, m *phash.Map, key uint64, val []byte) error {
	// Reuse the real Put path but stop before Commit: Put does the
	// Add + Write; we simply never commit and never abort.
	return m.Put(tx, key, val)
}

func TestRebootHeadRecoversLocally(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, true)
	for i := uint64(0); i < 10; i++ {
		if err := tc.client.Put(i, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	head := tc.replicas[tc.order[0]]
	if err := head.Reboot(); err != nil {
		t.Fatalf("head reboot: %v", err)
	}
	if err := tc.client.Put(50, []byte("post")); err != nil {
		t.Fatalf("Put after head reboot: %v", err)
	}
	v, ok, err := tc.client.Get(50)
	if err != nil || !ok || string(v) != "post" {
		t.Fatalf("Get(50) = %q %v %v", v, ok, err)
	}
	waitErrFree(t, tc)
}

func TestChainWithLatencyStillCorrect(t *testing.T) {
	tr := transport.NewInProc(50 * time.Microsecond)
	defer tr.Close()
	ids := []transport.NodeID{"a", "b", "c"}
	mgr, err := membership.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	reps := make(map[transport.NodeID]*Replica)
	for _, id := range ids {
		rep, err := NewReplica(id, Config{
			Mode: ModeKamino, HeapSize: 4 << 20, Alpha: 0.5,
			Transport: tr, Manager: mgr,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		reps[id] = rep
	}
	client := headClient(func() *Replica { return reps[mgr.View().Head()] })
	start := time.Now()
	for i := uint64(0); i < 10; i++ {
		if err := client.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Each put crosses >= 3 hops (head->b, b->c, c->head ack) of 50µs.
	if el := time.Since(start); el < 10*3*50*time.Microsecond {
		t.Errorf("10 puts with 50µs hops took %v; latency injection inactive?", el)
	}
	v, ok, err := client.Get(5)
	if err != nil || !ok || v[0] != 5 {
		t.Fatalf("Get = %v %v %v", v, ok, err)
	}
}

func TestHeapObjectIdentityAcrossReplicas(t *testing.T) {
	// The neighbour-copy recovery protocol requires identical object
	// placement on every replica. Verify a sampled object: key entries
	// live at identical ObjIDs.
	tc := newTestChain(t, ModeKamino, 3, false)
	for i := uint64(0); i < 30; i++ {
		if err := tc.client.Put(i, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	bumps := make([]uint64, 0, 3)
	for _, id := range tc.order {
		bumps = append(bumps, tc.replicas[id].Pool().Engine().Heap().Bump())
	}
	for i := 1; i < len(bumps); i++ {
		if bumps[i] != bumps[0] {
			t.Errorf("allocator divergence: bump[%d]=%d vs bump[0]=%d", i, bumps[i], bumps[0])
		}
	}
	waitErrFree(t, tc)
}
