package phash

import (
	"bytes"
	"testing"

	"kaminotx/kamino"
)

// TestWriteSet pins which operations declare a write intent on the bucket
// object. Every writer locks it (Tx.Lock, which declares nothing); only the
// paths that rewrite its head pointer — an insert, and a grow or a delete
// of the chain's first entry — may log, flush and back it up. An in-place
// overwrite must touch the entry alone.
func TestWriteSet(t *testing.T) {
	for _, mode := range []kamino.Mode{kamino.ModeSimple, kamino.ModeUndo, kamino.ModeCoW, kamino.ModeInPlace} {
		p, err := kamino.Create(kamino.Options{Mode: mode, HeapSize: 16 << 20, Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Create(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		bkt := m.buckets[0]
		small := bytes.Repeat([]byte{1}, 100)
		run := func(name string, wantBucket bool, wantTouched int, op func(tx *kamino.Tx) error) {
			t.Helper()
			var touched []kamino.ObjID
			if err := p.Update(func(tx *kamino.Tx) error {
				if err := op(tx); err != nil {
					return err
				}
				touched = tx.TouchedObjects()
				return nil
			}); err != nil {
				t.Fatalf("%s/%s: %v", mode, name, err)
			}
			gotBucket := false
			for _, obj := range touched {
				gotBucket = gotBucket || obj == bkt
			}
			if gotBucket != wantBucket || len(touched) != wantTouched {
				t.Errorf("%s/%s: bucket in write set = %v, %d intents (%v); want %v, %d",
					mode, name, gotBucket, len(touched), touched, wantBucket, wantTouched)
			}
		}
		put := func(key uint64, val []byte) func(*kamino.Tx) error {
			return func(tx *kamino.Tx) error { return m.Put(tx, key, val) }
		}
		del := func(key uint64) func(*kamino.Tx) error {
			return func(tx *kamino.Tx) error { _, err := m.Delete(tx, key); return err }
		}
		// One bucket, inserts at the head: the chain reads 3 → 2 → 1.
		run("insert 1", true, 2, put(1, small)) // new entry, bucket
		run("insert 2", true, 2, put(2, small))
		run("insert 3", true, 2, put(3, small))
		run("overwrite head", false, 1, put(3, bytes.Repeat([]byte{2}, 100)))
		run("overwrite mid-chain, shorter", false, 1, put(2, []byte("short")))
		big := bytes.Repeat([]byte{4}, 1000)
		run("grow mid-chain", false, 4, put(2, big)) // old entry, new entry, its free, predecessor
		run("grow head", true, 4, put(3, big))       // old entry, new entry, its free, bucket
		run("delete mid-chain", false, 2, del(2))    // predecessor, entry
		run("delete head", true, 2, del(3))          // bucket, entry
		run("delete absent", false, 0, del(99))

		if err := p.View(func(tx *kamino.Tx) error {
			if v, ok, err := m.Get(tx, 1); err != nil || !ok || !bytes.Equal(v, small) {
				t.Errorf("%s: Get(1) = %d bytes, %v, %v", mode, len(v), ok, err)
			}
			if n, err := m.Count(tx); err != nil || n != 1 {
				t.Errorf("%s: Count = %d, %v; want 1", mode, n, err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
