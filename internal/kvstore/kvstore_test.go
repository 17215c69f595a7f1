package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"kaminotx/kamino"
)

func newStore(t *testing.T, mode kamino.Mode) (*kamino.Pool, *Store) {
	t.Helper()
	p, err := kamino.Create(kamino.Options{Mode: mode, HeapSize: 32 << 20, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	s, err := Create(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

func TestBasicOps(t *testing.T) {
	_, s := newStore(t, kamino.ModeSimple)
	if err := s.Insert(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Read(1)
	if err != nil || !ok || string(v) != "one" {
		t.Fatalf("Read = %q %v %v", v, ok, err)
	}
	if err := s.Update(1, []byte("uno")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = s.Read(1)
	if string(v) != "uno" {
		t.Errorf("after update: %q", v)
	}
	ok, err = s.Delete(1)
	if err != nil || !ok {
		t.Fatalf("Delete = %v %v", ok, err)
	}
	if _, ok, _ := s.Read(1); ok {
		t.Error("deleted key still readable")
	}
}

func TestReadModifyWriteAtomicity(t *testing.T) {
	_, s := newStore(t, kamino.ModeSimple)
	var buf [8]byte
	if err := s.Insert(5, buf[:]); err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				err := s.ReadModifyWrite(5, func(old []byte, found bool) ([]byte, error) {
					if !found {
						return nil, fmt.Errorf("key vanished")
					}
					v := binary.LittleEndian.Uint64(old)
					var out [8]byte
					binary.LittleEndian.PutUint64(out[:], v+1)
					return out[:], nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	v, _, err := s.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(v); got != goroutines*perG {
		t.Errorf("counter = %d, want %d (RMW lost updates)", got, goroutines*perG)
	}
}

func TestOpenAfterCrash(t *testing.T) {
	p, s := newStore(t, kamino.ModeSimple)
	for i := uint64(0); i < 100; i++ {
		if err := s.Insert(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Crash(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("Count after crash = %d", n)
	}
	v, ok, err := s2.Read(42)
	if err != nil || !ok || string(v) != "v42" {
		t.Fatalf("Read(42) after crash = %q %v %v", v, ok, err)
	}
	if err := s2.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenWithoutStore(t *testing.T) {
	p, err := kamino.Create(kamino.Options{HeapSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := Open(p); err == nil {
		t.Error("Open on storeless pool did not error")
	}
}

func TestScan(t *testing.T) {
	_, s := newStore(t, kamino.ModeSimple)
	for i := uint64(0); i < 50; i++ {
		if err := s.Insert(i*10, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := s.Scan(95, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 5 || kvs[0].Key != 100 || kvs[4].Key != 140 {
		t.Errorf("scan = %+v", kvs)
	}
}

// TestConcurrentPreloadSurvivesCrash: two goroutines insert adjacent key
// ranges into one strict pool, so their transactions allocate neighbouring
// blocks that share device lines and store into them at the same time.
// Strict NVM drops a writer's pending flush of a line another store dirties
// again, so each store's own transaction must flush that line once more:
// after Drain every store has been made durable by whoever made it, and a
// power failure must lose nothing. A store left unmarked because it rewrote
// identical bytes (an allocation's zeros over zeros) would dirty the line
// and leave it to nobody. Device latency widens the window between one
// transaction's flush and its fence in which the other's store lands; three
// rounds of 2000 keys caught such a variant (allocations marking only the
// bytes their zeroing changed) in three runs of five.
func TestConcurrentPreloadSurvivesCrash(t *testing.T) {
	for round := 0; round < 3; round++ {
		concurrentPreloadCrash(t, 1000)
	}
}

func concurrentPreloadCrash(t *testing.T, perG uint64) {
	t.Helper()
	p, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 32 << 20, Strict: true,
		FlushLatency: time.Microsecond, FenceLatency: 5 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s, err := Create(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	value := func(k uint64) []byte {
		v := make([]byte, 1024)
		for i := range v {
			v[i] = byte(k*31 + uint64(i)*7)
		}
		return v
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := uint64(0); g < 2; g++ {
		wg.Add(1)
		go func(lo uint64) {
			defer wg.Done()
			for k := lo; k < lo+perG; k++ {
				if err := s.Insert(k, value(k)); err != nil {
					errs <- err
					return
				}
			}
		}(g * perG)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	p.Drain()
	if err := p.Crash(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	lost := 0
	for k := uint64(0); k < 2*perG; k++ {
		got, ok, err := s2.Read(k)
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		if !ok || !bytes.Equal(got, value(k)) {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d preloaded values lost or corrupted by the power failure", lost, 2*perG)
	}
	if n, err := s2.Count(); err != nil || n != int(2*perG) {
		t.Fatalf("Count after crash = %d (%v), want %d", n, err, 2*perG)
	}
}
