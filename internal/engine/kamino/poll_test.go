package kamino

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
)

// waitNoPollers waits for every engine goroutine in the process to have
// stopped polling (a poller gives up after pollSpins yields).
func waitNoPollers(t *testing.T, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for pollers.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d engine goroutines still polling after %v", pollers.Load(), within)
		}
		time.Sleep(time.Millisecond)
	}
}

// allocObjs commits one small object per worker.
func allocObjs(t *testing.T, e *Engine, workers int) []heap.ObjID {
	t.Helper()
	objs := make([]heap.ObjID, workers)
	for i := range objs {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if objs[i], err = tx.Alloc(8); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return objs
}

// commitLoad commits txs one-object transactions from one goroutine per
// object, so commits overlap without lock conflicts; transaction i of worker
// w writes [i, w] into w's object.
func commitLoad(t *testing.T, e *Engine, objs []heap.ObjID, txs int) {
	var wg sync.WaitGroup
	for w, obj := range objs {
		wg.Add(1)
		go func(w int, obj heap.ObjID) {
			defer wg.Done()
			for i := 0; i < txs; i++ {
				tx, err := e.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.Add(obj); err != nil {
					t.Error(err)
					tx.Abort()
					return
				}
				if err := tx.Write(obj, 0, []byte{byte(i), byte(w)}); err != nil {
					t.Error(err)
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w, obj)
	}
	wg.Wait()
}

// TestPollBudget: however many appliers the process runs, at most
// GOMAXPROCS-1 of them poll at a time — across engines, not per engine —
// the rest park, and an idle engine stops polling altogether.
func TestPollBudget(t *testing.T) {
	cfg := Config{
		Log:            intentlog.Config{Slots: 32, EntriesPerSlot: 32, DataBytesPerSlot: 0},
		ApplierWorkers: 4,
	}
	for _, tc := range []struct {
		name           string
		procs, engines int
		wantHigh       int32
	}{
		{"procs2", 2, 1, 1},
		{"procs1", 1, 1, 0},
		{"procs2-two-engines", 2, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			waitNoPollers(t, 5*time.Second) // engines of earlier tests
			pollersHigh.Store(0)

			engines := make([]*Engine, tc.engines)
			for i := range engines {
				m, b, l := regions(t, mainSize)
				e, err := New(m, b, l, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				engines[i] = e
			}
			var wg sync.WaitGroup
			for _, e := range engines {
				objs := allocObjs(t, e, 8)
				wg.Add(1)
				go func(e *Engine) {
					defer wg.Done()
					commitLoad(t, e, objs, 50)
				}(e)
			}
			wg.Wait()
			for _, e := range engines {
				e.Drain()
			}

			if got := pollersHigh.Load(); got != tc.wantHigh {
				t.Errorf("pollers high-water mark = %d, want %d", got, tc.wantHigh)
			}
			waitNoPollers(t, 50*time.Millisecond)
			for i, e := range engines {
				s := e.Obs().Snapshot()
				if g, ok := s.Gauges["engine_pollers"]; !ok || g != 0 {
					t.Errorf("engine %d: engine_pollers = %d (present %v), want 0 when idle", i, g, ok)
				}
				// Four appliers, at most one slot: the others parked.
				if s.Counters["applier_parks"] < 3 {
					t.Errorf("engine %d: applier_parks = %d, want at least 3", i, s.Counters["applier_parks"])
				}
			}
		})
	}
}
