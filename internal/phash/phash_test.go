package phash

import (
	"fmt"
	"math/rand"
	"testing"

	"kaminotx/kamino"
)

func newMap(t *testing.T, buckets int) (*kamino.Pool, *Map) {
	t.Helper()
	p, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 16 << 20, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	m, err := Create(p, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

func TestPutGetDelete(t *testing.T) {
	p, m := newMap(t, 16)
	err := p.Update(func(tx *kamino.Tx) error {
		if err := m.Put(tx, 1, []byte("one")); err != nil {
			return err
		}
		return m.Put(tx, 2, []byte("two"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.View(func(tx *kamino.Tx) error {
		v, ok, err := m.Get(tx, 1)
		if err != nil || !ok || string(v) != "one" {
			return fmt.Errorf("Get(1) = %q %v %v", v, ok, err)
		}
		if _, ok, _ := m.Get(tx, 99); ok {
			return fmt.Errorf("absent key found")
		}
		n, err := m.Count(tx)
		if err != nil || n != 2 {
			return fmt.Errorf("Len = %d %v", n, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Update(func(tx *kamino.Tx) error {
		ok, err := m.Delete(tx, 1)
		if err != nil || !ok {
			return fmt.Errorf("Delete = %v %v", ok, err)
		}
		ok, err = m.Delete(tx, 1)
		if err != nil || ok {
			return fmt.Errorf("double Delete = %v %v", ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateInPlaceAndGrow(t *testing.T) {
	p, m := newMap(t, 4)
	if err := p.Update(func(tx *kamino.Tx) error {
		return m.Put(tx, 7, []byte("small"))
	}); err != nil {
		t.Fatal(err)
	}
	// Same-size update: in place.
	if err := p.Update(func(tx *kamino.Tx) error {
		return m.Put(tx, 7, []byte("tiny!"))
	}); err != nil {
		t.Fatal(err)
	}
	// Grow beyond the entry's capacity: replacement.
	big := make([]byte, 300)
	big[299] = 0xAB
	if err := p.Update(func(tx *kamino.Tx) error {
		return m.Put(tx, 7, big)
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.View(func(tx *kamino.Tx) error {
		v, ok, err := m.Get(tx, 7)
		if err != nil || !ok || len(v) != 300 || v[299] != 0xAB {
			return fmt.Errorf("after grow: len=%d %v %v", len(v), ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestChainingCollisions(t *testing.T) {
	// One bucket: everything chains.
	p, m := newMap(t, 1)
	const n = 50
	for i := uint64(0); i < n; i++ {
		if err := p.Update(func(tx *kamino.Tx) error {
			return m.Put(tx, i, []byte{byte(i)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		if err := p.View(func(tx *kamino.Tx) error {
			v, ok, err := m.Get(tx, i)
			if err != nil || !ok || v[0] != byte(i) {
				return fmt.Errorf("Get(%d) = %v %v %v", i, v, ok, err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Delete from the middle of the chain.
	if err := p.Update(func(tx *kamino.Tx) error {
		ok, err := m.Delete(tx, 25)
		if !ok || err != nil {
			return fmt.Errorf("chain delete failed: %v %v", ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.View(func(tx *kamino.Tx) error {
		if _, ok, _ := m.Get(tx, 25); ok {
			return fmt.Errorf("deleted chain entry still found")
		}
		if _, ok, _ := m.Get(tx, 24); !ok {
			return fmt.Errorf("neighbor entry lost")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecovery(t *testing.T) {
	p, m := newMap(t, 8)
	for i := uint64(0); i < 30; i++ {
		if err := p.Update(func(tx *kamino.Tx) error {
			return m.Put(tx, i, []byte(fmt.Sprintf("v%d", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Crash(); err != nil {
		t.Fatal(err)
	}
	m2, err := Attach(p, m.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.View(func(tx *kamino.Tx) error {
		n, err := m2.Count(tx)
		if err != nil || n != 30 {
			return fmt.Errorf("Len after crash = %d %v", n, err)
		}
		v, ok, err := m2.Get(tx, 17)
		if err != nil || !ok || string(v) != "v17" {
			return fmt.Errorf("Get(17) after crash = %q %v %v", v, ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAgainstModel(t *testing.T) {
	p, m := newMap(t, 13)
	rng := rand.New(rand.NewSource(9))
	model := make(map[uint64]string)
	for i := 0; i < 600; i++ {
		k := uint64(rng.Intn(80))
		switch rng.Intn(3) {
		case 0:
			v := fmt.Sprintf("val-%d-%d", k, i)
			if err := p.Update(func(tx *kamino.Tx) error { return m.Put(tx, k, []byte(v)) }); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 1:
			var got string
			var ok bool
			if err := p.View(func(tx *kamino.Tx) error {
				v, o, err := m.Get(tx, k)
				got, ok = string(v), o
				return err
			}); err != nil {
				t.Fatal(err)
			}
			want, wok := model[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("Get(%d) = %q/%v, model %q/%v", k, got, ok, want, wok)
			}
		case 2:
			var ok bool
			if err := p.Update(func(tx *kamino.Tx) error {
				var err error
				ok, err = m.Delete(tx, k)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if _, wok := model[k]; ok != wok {
				t.Fatalf("Delete(%d) = %v, model %v", k, ok, wok)
			}
			delete(model, k)
		}
	}
}

// A directory larger than a log slot's data area (64 KiB by default) must
// still be creatable on every engine: Create fills it in the transaction
// that allocates it, so undo and copy-on-write never copy it into a slot.
func TestCreateLargeDirectoryAllModes(t *testing.T) {
	const buckets = 16 << 10 // 128 KiB of bucket pointers
	for _, mode := range []kamino.Mode{
		kamino.ModeSimple, kamino.ModeDynamic, kamino.ModeUndo,
		kamino.ModeCoW, kamino.ModeNoLog, kamino.ModeInPlace,
	} {
		t.Run(string(mode), func(t *testing.T) {
			p, err := kamino.Create(kamino.Options{Mode: mode, HeapSize: 16 << 20, Alpha: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			m, err := Create(p, buckets)
			if err != nil {
				t.Fatalf("Create(%d): %v", buckets, err)
			}
			if err := p.Update(func(tx *kamino.Tx) error {
				return m.Put(tx, 7, []byte("seven"))
			}); err != nil {
				t.Fatal(err)
			}
			// Attach reads the directory back from the pool, so it
			// checks what Create persisted rather than what it cached.
			m2, err := Attach(p, m.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if err := p.View(func(tx *kamino.Tx) error {
				v, ok, err := m2.Get(tx, 7)
				if err != nil || !ok || string(v) != "seven" {
					return fmt.Errorf("Get(7) = %q %v %v", v, ok, err)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range m.buckets {
				if m.buckets[i] != m2.buckets[i] {
					t.Fatalf("bucket %d: created %d, attached %d", i, m.buckets[i], m2.buckets[i])
				}
			}
		})
	}
}

func TestCreateRejectsOversizedDirectory(t *testing.T) {
	p, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, n := range []int{0, -1, MaxBuckets + 1} {
		if _, err := Create(p, n); err == nil {
			t.Errorf("Create(%d) accepted", n)
		}
	}
}

// BenchmarkPut is one in-place overwrite of an existing 1 KiB value, each in
// its own transaction, on the Kamino-Tx-Simple pool a chain head runs: the
// store's part of a chain put, beside pbtree's BenchmarkPut for kvstore.
func BenchmarkPut(b *testing.B) {
	const keys = 1024
	p, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	m, err := Create(p, keys)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 1024)
	put := func(key uint64) error {
		return p.Update(func(tx *kamino.Tx) error { return m.Put(tx, key, val) })
	}
	for k := uint64(0); k < keys; k++ {
		if err := put(k); err != nil {
			b.Fatal(err)
		}
	}
	p.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := put(uint64(i*7919) % keys); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	p.Drain()
}
