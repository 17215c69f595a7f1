package kvstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"kaminotx/kamino"
)

// Edge-case coverage for the store: empty and oversized values, scans
// interleaved with deletes, and same-key contention under the race
// detector. (Crash recovery with live tenants is in prefix_test.go.)

func TestEmptyValue(t *testing.T) {
	_, s := newStore(t, kamino.ModeSimple)
	if err := s.Insert(1, nil); err != nil {
		t.Fatalf("Insert(nil value): %v", err)
	}
	v, ok, err := s.Read(1)
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("Read = %q %v %v, want empty found", v, ok, err)
	}
	// Overwriting empty with data and back again must round-trip.
	if err := s.Update(1, []byte("full")); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(1, []byte{}); err != nil {
		t.Fatal(err)
	}
	v, ok, _ = s.Read(1)
	if !ok || len(v) != 0 {
		t.Fatalf("after shrink to empty: %q %v", v, ok)
	}
	if found, err := s.Delete(1); err != nil || !found {
		t.Fatalf("Delete = %v %v", found, err)
	}
}

func TestOversizedValue(t *testing.T) {
	p, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 1 << 20, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s, err := Create(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	// A value bigger than the whole heap must fail cleanly...
	if err := s.Insert(1, make([]byte, 2<<20)); err == nil {
		t.Fatal("heap-sized value accepted")
	}
	// ...and leave the store fully usable.
	if err := s.Insert(1, []byte("small")); err != nil {
		t.Fatalf("store broken after oversized insert: %v", err)
	}
	v, ok, _ := s.Read(1)
	if !ok || string(v) != "small" {
		t.Fatalf("Read = %q %v", v, ok)
	}
	if err := s.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A large-but-fitting value (beyond the largest size class) works.
	big := bytes.Repeat([]byte{7}, 100_000)
	if err := s.Update(2, big); err != nil {
		t.Fatalf("large value: %v", err)
	}
	v, ok, _ = s.Read(2)
	if !ok || !bytes.Equal(v, big) {
		t.Fatalf("large value round-trip: %d bytes, found=%v", len(v), ok)
	}
}

func TestDeleteThenScan(t *testing.T) {
	_, s := newStore(t, kamino.ModeSimple)
	for i := uint64(0); i < 50; i++ {
		if err := s.Insert(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Delete every third key, including a scan's start key.
	for i := uint64(0); i < 50; i += 3 {
		if found, err := s.Delete(i); err != nil || !found {
			t.Fatalf("Delete(%d) = %v %v", i, found, err)
		}
	}
	kvs, err := s.Scan(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := uint64(0); i < 50; i++ {
		if i%3 != 0 {
			want++
		}
	}
	if len(kvs) != want {
		t.Fatalf("Scan after deletes = %d pairs, want %d", len(kvs), want)
	}
	for _, kv := range kvs {
		if kv.Key%3 == 0 {
			t.Fatalf("deleted key %d appeared in scan", kv.Key)
		}
	}
	// Scan starting AT a deleted key begins at its successor.
	kvs, err = s.Scan(3, 1)
	if err != nil || len(kvs) != 1 || kvs[0].Key != 4 {
		t.Fatalf("Scan(3,1) = %v %v", kvs, err)
	}
	if n, _ := s.Count(); n != want {
		t.Errorf("Count = %d, want %d", n, want)
	}
}

// TestConcurrentSameKey hammers one key with concurrent writers and
// readers; under -race this exercises the leaf latch discipline, and the
// final value must be one of the written values (no torn reads, no lost
// structure).
func TestConcurrentSameKey(t *testing.T) {
	_, s := newStore(t, kamino.ModeSimple)
	const key = 42
	if err := s.Insert(key, []byte{0}); err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const readers = 4
	const rounds = 100
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := s.Update(key, []byte{id, byte(i)}); err != nil {
					errs <- err
					return
				}
			}
		}(byte(w + 1))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v, ok, err := s.Read(key)
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					errs <- fmt.Errorf("key vanished")
					return
				}
				if len(v) != 1 && len(v) != 2 {
					errs <- fmt.Errorf("torn value %v", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	v, ok, err := s.Read(key)
	if err != nil || !ok || len(v) != 2 {
		t.Fatalf("final Read = %v %v %v", v, ok, err)
	}
	if v[0] == 0 || v[0] > writers {
		t.Fatalf("final value from no writer: %v", v)
	}
	if err := s.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
