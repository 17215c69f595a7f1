package chain

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"kaminotx/internal/nvm"
)

// A live tail with nothing pending executes the batch it receives without
// appending it to its ring, and then persists only its duplicate floor. The
// window this opens is every fence of that batch: until the floor is
// durable the record exists on the tail only as a transaction, and the
// copy that rolls it forward is the one the middle holds in flight.

// TestTailCrashWindows power-fails the tail inside each fence of one such
// batch — the intent log's three (header and entry, commit marker,
// release), the main heap's, and the ring's floor — with the tail's
// delivery goroutine dying inside the fence, as the power failure finds
// it, and every line in doubt lost or some of them kept. The tail reboots
// and rolls an incomplete transaction forward from the middle, which
// resends the record; a floor that named the record before it committed
// would drop that resend as a duplicate and lose the write. Either way the
// put in the window and the puts around it read back on every replica,
// every ring drains and no admission lock stays held.
func TestTailCrashWindows(t *testing.T) {
	fences := []struct {
		region string
		nth    int // the region's nth fence of the batch
	}{{"log", 1}, {"main", 1}, {"log", 2}, {"log", 3}, {"ring", 1}}
	for _, f := range fences {
		for _, seed := range []int64{0, 7} {
			name := fmt.Sprintf("%s%d/full-loss", f.region, f.nth)
			if seed != 0 {
				name = fmt.Sprintf("%s%d/partial-loss", f.region, f.nth)
			}
			t.Run(name, func(t *testing.T) {
				tc, _ := newHookedChain(t, 0.5, true, 0, 1)
				acked := map[uint64]string{}
				put := func(key uint64, val string) {
					t.Helper()
					putRetry(t, tc, key, []byte(val))
					acked[key] = val
				}
				for k := uint64(0); k < 8; k++ {
					put(k, fmt.Sprintf("before-%02d", k))
				}
				// Every value has one length, so the put in the window
				// overwrites in place, as the benchmark's do: the fences
				// listed above are all of its batch's.
				tail := tc.get("n2")
				reps := []*Replica{tc.get("n0"), tc.get("n1"), tail}
				settle(t, reps)
				before := readReplicaCost(tail)
				put(3, "warmup-03")
				settle(t, reps)
				after := readReplicaCost(tail)
				for region, want := range map[string]uint64{"log": 3, "main": 1, "ring": 1} {
					if got := after[region].fences - before[region].fences; got != want {
						t.Fatalf("an overwrite at the tail fences its %s %d times, want %d", region, got, want)
					}
				}

				regions := map[string]*nvm.Region{
					"log":  tail.Pool().InPlaceEngine().Log().Region(),
					"main": tail.Pool().Engine().Heap().Region(),
					"ring": tail.ringReg,
				}
				unhook := func() {
					for _, reg := range regions {
						reg.SetFenceHook(nil)
					}
				}
				t.Cleanup(unhook)
				// The ring bytes the batch had written when the tail died:
				// none before the commit, the 8-byte floor after it.
				ring0 := tail.ringReg.Stats().BytesWritten
				killed := make(chan uint64, 1)
				var n atomic.Int32
				regions[f.region].SetFenceHook(func() {
					if n.Add(1) != int32(f.nth) {
						return
					}
					killed <- tail.ringReg.Stats().BytesWritten - ring0
					runtime.Goexit()
				})
				done := make(chan struct{})
				go func() {
					defer close(done)
					if err := tc.client.Put(3, []byte("window-03")); err != nil {
						t.Errorf("the put in the window: %v", err)
					}
				}()
				select {
				case b := <-killed:
					if b > 8 {
						t.Fatalf("the tail wrote %d ring bytes before it died: it appended the batch", b)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("the tail never reached its %s fence %d", f.region, f.nth)
				}
				unhook()

				var err error
				if seed != 0 {
					err = tail.RebootPartial(seed)
				} else {
					err = tail.Reboot()
				}
				if err != nil {
					t.Fatalf("reboot: %v", err)
				}
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					dumpChainState(t, tc)
					t.Fatal("the put in the window was stranded")
				}
				acked[3] = "window-03"
				for k := uint64(4); k < 12; k++ {
					put(k, fmt.Sprintf("latest-%02d", k))
				}
				checkAcked(t, tc, acked)
			})
		}
	}
}
