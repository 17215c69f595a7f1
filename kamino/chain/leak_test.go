package chain

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestClosedClusterIsCollectable builds, uses and closes a cluster twice and
// checks that nothing keeps a closed replica's NVM regions — by far its
// largest allocation — reachable. The package-level map cache the KV
// operations keep per pool used to pin every pool, regions included, for the
// life of the process.
func TestClosedClusterIsCollectable(t *testing.T) {
	const replicas = 3
	var collected atomic.Int32
	for round := 0; round < 2; round++ {
		c, err := New(Options{Replicas: replicas, HeapSize: 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 16; k++ {
			if err := c.Put(k, []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok, err := c.Get(3); err != nil || !ok {
			t.Fatalf("Get = %v %v", ok, err)
		}
		c.mu.RLock()
		for _, rep := range c.replicas {
			// The finalizer goes on the main region's backing array: a
			// pool sits on reference cycles (gauge closures, index
			// sources), and a finalizer on a cycle never runs.
			mem, err := rep.Pool().Engine().Heap().Region().ReadSlice(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(&mem[0], func(*byte) { collected.Add(1) })
		}
		c.mu.RUnlock()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Finalizers run on their own goroutine some time after the collection
	// that found the object unreachable.
	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() < 2*replicas && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != 2*replicas {
		t.Fatalf("%d of %d closed replicas' heap regions were collected; the rest are still reachable", got, 2*replicas)
	}
}
