package chain

import (
	"fmt"
	"testing"

	"kaminotx/internal/membership"
	"kaminotx/internal/transport"
)

// kvSetup sizes the directory to the heap, and must do so on every engine a
// replica can run: at the default 64 MiB heap and at the gated benchmark's
// (20 000 keys of 1 KiB, about 85 MB) the directory is larger than the
// 64 KiB data area of an undo log slot, which a traditional replica could
// not declare an intent on.
func TestKVSetupSizesDirectoryToHeap(t *testing.T) {
	const benchHeap = 20_000*(1024+256)*2 + (32 << 20)
	for _, mode := range []Mode{ModeKamino, ModeTraditional} {
		for _, heapSize := range []int{0, benchHeap} {
			t.Run(fmt.Sprintf("mode%d/heap%d", mode, heapSize), func(t *testing.T) {
				tr := transport.NewInProc(0)
				defer tr.Close()
				ids := []transport.NodeID{"a", "b"}
				mgr, err := membership.New(ids)
				if err != nil {
					t.Fatal(err)
				}
				reps := make(map[transport.NodeID]*Replica)
				for _, id := range ids {
					rep, err := NewReplica(id, Config{
						Mode: mode, HeapSize: heapSize, Alpha: 0.5,
						Transport: tr, Manager: mgr,
					})
					if err != nil {
						t.Fatalf("NewReplica(%s): %v", id, err)
					}
					defer rep.Close()
					reps[id] = rep
				}
				client := headClient(func() *Replica { return reps[mgr.View().Head()] })
				var top uint64
				for k := uint64(0); k < 200; k++ {
					if err := client.Put(k, []byte{byte(k)}); err != nil {
						t.Fatalf("Put(%d): %v", k, err)
					}
					top = max(top, reps["a"].lockKey(encodeKV(k, nil)))
				}
				for k := uint64(0); k < 200; k++ {
					v, ok, err := client.Get(k)
					if err != nil || !ok || v[0] != byte(k) {
						t.Fatalf("Get(%d) = %v %v %v", k, v, ok, err)
					}
				}
				// 200 keys over at least 8192 buckets: some key
				// lands past the 1024-bucket floor.
				if top < 1024 {
					t.Errorf("highest bucket of 200 keys is %d; directory not sized to the heap", top)
				}
			})
		}
	}
}

// A joiner attaches its map when the image arrives, not on its first
// operation: promoted to head before it executed anything, its clients'
// lock-key extraction already reads the map and agrees with the old
// head's.
func TestJoinerLockKeysBeforeFirstOp(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 3, false)
	if err := tc.client.Put(1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	rep, err := JoinAsTail("n3", tc.cfg)
	if err != nil {
		t.Fatalf("JoinAsTail: %v", err)
	}
	tc.put("n3", rep)
	head := tc.get(tc.order[0])
	for k := uint64(0); k < 50; k++ {
		got, want := rep.lockKey(encodeKV(k, nil)), head.lockKey(encodeKV(k, nil))
		if got != want {
			t.Fatalf("key %d: joiner locks %v, head locks %v", k, got, want)
		}
	}
	waitErrFree(t, tc)
}
