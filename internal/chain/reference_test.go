package chain

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kaminotx/internal/pqueue"
	"kaminotx/internal/transport"
)

// The head's ring keeps a put as a reference to its key, and each resend
// reads the value back from the head's store. These tests hold puts in
// flight at the head, capture what it first sends, and check every later
// send of the same record against it through the paths that resend: the
// re-drive after a head reboot, the repair ticker, and the view-change
// resend after the middle is removed.

// sendLog keeps the first send of every record the head makes and checks
// each later send of it, byte for byte, against that one.
type sendLog struct {
	t      *testing.T
	mu     sync.Mutex
	first  map[uint64]pqueue.Record
	resent int
}

func (l *sendLog) see(msg *transport.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rec := range msg.Batch {
		f, ok := l.first[rec.Seq]
		if !ok {
			l.first[rec.Seq] = pqueue.Record{Seq: rec.Seq, Name: rec.Name, Args: bytes.Clone(rec.Args)}
			continue
		}
		l.resent++
		if rec.Name != f.Name || !bytes.Equal(rec.Args, f.Args) {
			l.t.Errorf("seq %d resent as %q with %d B of args, first sent as %q with %d B",
				rec.Seq, rec.Name, len(rec.Args), f.Name, len(f.Args))
		}
	}
}

func (l *sendLog) resends() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.resent
}

// heldChain is a strict three-replica chain whose head's sends all pass
// through a sendLog, and lose their way to the middle while hold is set.
func heldChain(t *testing.T) (tc *testChain, log *sendLog, hold *atomic.Bool) {
	tc, ht := newHookedChain(t, 1, true, 0, 4)
	log = &sendLog{t: t, first: map[uint64]pqueue.Record{}}
	hold = &atomic.Bool{}
	ht.lose(func(to transport.NodeID, msg *transport.Message) bool {
		if msg.From != "n0" || msg.Kind != transport.KindOpBatch {
			return false
		}
		log.see(msg)
		return hold.Load() && to == "n1"
	})
	t.Cleanup(func() { ht.lose(nil) }) // before the replicas close: no check outlives the test
	return tc, log, hold
}

// bucketKeys returns n keys in distinct hash buckets, so no put's admission
// waits on another's.
func bucketKeys(rep *Replica, n int) []uint64 {
	seen := map[int]bool{}
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if b := rep.kv.BucketIndex(k); !seen[b] {
			seen[b] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// putInFlight starts a put of a distinct 1 KiB value to each key and waits
// until all of them are in flight at the head; wait returns once every put
// has been answered, and reports the ones that failed.
func putInFlight(t *testing.T, tc *testChain, keys []uint64, acked map[uint64]string) (wait func()) {
	t.Helper()
	errs := make(chan error, len(keys)) // a put answered after a failed test touches no t
	for i, key := range keys {
		val := fmt.Sprintf("key %d ", key) + string(bytes.Repeat([]byte{byte('a' + i)}, 1024))
		acked[key] = val
		go func() {
			err := tc.client.Put(key, []byte(val))
			if err != nil {
				err = fmt.Errorf("Put(%d): %w", key, err)
			}
			errs <- err
		}()
	}
	head := tc.get("n0")
	waitFor(t, fmt.Sprintf("%d puts in flight at the head", len(keys)), func() bool {
		span, _, err := head.getRing().Spans()
		return err == nil && span.Records == len(keys)
	})
	return func() {
		t.Helper()
		for range keys {
			select {
			case err := <-errs:
				if err != nil {
					t.Error(err)
				}
			case <-time.After(10 * time.Second):
				dumpChainState(t, tc)
				t.Fatal("the held puts were never answered")
			}
		}
	}
}

// TestResentRecordsMatchTheFirstSend: with eight puts held in flight at the
// head, a power failure of the head (partial line loss) and the removal of
// the middle each make the head send them again, and every record resent
// equals the one first sent — the references in its ring come back as the
// puts they name, values and all.
func TestResentRecordsMatchTheFirstSend(t *testing.T) {
	const n = 8
	for _, tt := range []struct {
		name    string
		disturb func(t *testing.T, tc *testChain, hold *atomic.Bool)
	}{
		{"head-reboot/partial-loss", func(t *testing.T, tc *testChain, hold *atomic.Bool) {
			// The re-drive after recovery is lost too; the repair
			// ticker's, once the hold lifts, gets through.
			if err := tc.get("n0").RebootPartial(7); err != nil {
				t.Fatal(err)
			}
			hold.Store(false)
		}},
		{"middle-removed", func(t *testing.T, tc *testChain, hold *atomic.Bool) {
			tc.kill(t, "n1")
			tc.order = slices.DeleteFunc(slices.Clone(tc.order), func(id transport.NodeID) bool { return id == "n1" })
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tc, log, hold := heldChain(t)
			hold.Store(true)
			acked := map[uint64]string{}
			wait := putInFlight(t, tc, bucketKeys(tc.get("n0"), n), acked)
			tt.disturb(t, tc, hold)
			wait()
			if got := log.resends(); got < n {
				t.Errorf("%d records resent, want at least the %d held", got, n)
			}
			checkAcked(t, tc, acked)
		})
	}
}

// TestAckedReferenceIsNotResent puts the tail's acknowledgment of a put,
// and a later put of the same key, between a resend's ring read and its
// store read: the store now holds the later value, so the acknowledged
// record must not be sent again — with it the later put's value would go
// down the chain under the earlier sequence number.
func TestAckedReferenceIsNotResent(t *testing.T) {
	tc, log, hold := heldChain(t)
	head := tc.get("n0")
	keys := bucketKeys(head, 2)
	hold.Store(true)
	acked := map[uint64]string{}
	wait := putInFlight(t, tc, keys, acked)
	stale, err := head.getRing().Inflight() // the ring read
	if err != nil {
		t.Fatal(err)
	}
	hold.Store(false) // the repair ticker gets the puts through; the tail acknowledges them
	wait()
	later := "later " + acked[keys[0]]
	putRetry(t, tc, keys[0], []byte(later))
	acked[keys[0]] = later

	before := log.resends()
	head.resend(tc.mgr.View(), "n1", stale) // its store read
	if got := log.resends() - before; got != 0 {
		t.Errorf("%d acknowledged records resent, want none", got)
	}
	checkAcked(t, tc, acked)
}

// TestHeadRefusesWhatDownstreamCannotHold: the head's ring keeps a put as
// its key, but every ring downstream keeps it whole, so the head bounds its
// writes in flight by their whole size. With two 3 MiB puts held in flight
// (6 MiB of an 8 MiB ring), a third is refused with ErrFull, and so is a
// 9 MiB put with nothing in flight; neither executes, no replica fails, and
// the chain takes the third once the first two are acknowledged.
func TestHeadRefusesWhatDownstreamCannotHold(t *testing.T) {
	tc, ht := hookedChain(t, 0, Config{Mode: ModeKamino, HeapSize: 16 << 20, Alpha: 1, Strict: true, BatchOps: 4})
	var hold atomic.Bool
	ht.lose(func(to transport.NodeID, msg *transport.Message) bool {
		return hold.Load() && msg.From == "n0" && to == "n1" && msg.Kind == transport.KindOpBatch
	})
	t.Cleanup(func() { ht.lose(nil) })
	head := tc.get("n0")
	keys := bucketKeys(head, 3)
	value := func(i, size int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, size) }
	// put answers within a deadline, so a put the chain cannot finish fails
	// the test instead of hanging it.
	put := func(key uint64, val []byte) <-chan error {
		errc := make(chan error, 1)
		go func() { errc <- tc.client.Put(key, val) }()
		return errc
	}
	answer := func(what string, errc <-chan error) error {
		t.Helper()
		select {
		case err := <-errc:
			return err
		case <-time.After(10 * time.Second):
			dumpChainState(t, tc)
			t.Fatalf("%s was never answered", what)
			return nil
		}
	}
	refused := func(what string, key uint64, val []byte) {
		t.Helper()
		if err := answer(what, put(key, val)); !errors.Is(err, pqueue.ErrFull) {
			t.Errorf("%s = %v, want ErrFull", what, err)
		}
		if _, ok := localGet(t, head, key); ok {
			t.Errorf("%s executed at the head", what)
		}
	}

	hold.Store(true)
	acked := map[uint64]string{}
	var held []<-chan error
	for i, key := range keys[:2] {
		acked[key] = string(value(i, 3<<20))
		held = append(held, put(key, []byte(acked[key])))
	}
	waitFor(t, "two puts in flight at the head", func() bool {
		span, _, err := head.getRing().Spans()
		return err == nil && span.Records == 2
	})
	refused("a 3 MiB put behind 6 MiB in flight", keys[2], value(2, 3<<20))
	hold.Store(false)
	for i, errc := range held {
		if err := answer(fmt.Sprintf("held put %d", i), errc); err != nil {
			t.Error(err)
		}
	}
	refused("a 9 MiB put", keys[2], value(2, 9<<20))
	acked[keys[2]] = string(value(2, 3<<20))
	if err := answer("the third 3 MiB put", put(keys[2], []byte(acked[keys[2]]))); err != nil {
		t.Error(err)
	}
	checkAcked(t, tc, acked)
}
