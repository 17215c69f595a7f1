package kamino

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"kaminotx/internal/trace"
)

// errAbort forces Update down its abort path.
var errAbort = errors.New("deliberate abort")

// runAuditedWorkload drives concurrent transactions over a shared object
// set: allocations, contended updates, and (where supported) aborts with
// rollbacks — the access pattern that exercises every audited invariant.
func runAuditedWorkload(t *testing.T, pool *Pool, withAborts bool) {
	t.Helper()
	const objects = 8
	var setup [objects]ObjID
	err := pool.Update(func(tx *Tx) error {
		for i := range setup {
			obj, err := tx.Alloc(128)
			if err != nil {
				return err
			}
			setup[i] = obj
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const txPerWorker = 25
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < txPerWorker; i++ {
				obj := setup[(w*txPerWorker+i)%objects]
				abort := withAborts && i%7 == 3
				err := pool.Update(func(tx *Tx) error {
					if err := tx.Add(obj); err != nil {
						return err
					}
					for j := range buf {
						buf[j] = byte(w + i + j)
					}
					if err := tx.Write(obj, 0, buf); err != nil {
						return err
					}
					if i%5 == 0 {
						fresh, err := tx.Alloc(64)
						if err != nil {
							return err
						}
						if err := tx.Write(fresh, 0, buf[:32]); err != nil {
							return err
						}
					}
					if abort {
						return errAbort
					}
					return nil
				})
				if abort && errors.Is(err, errAbort) {
					err = nil
				}
				if err != nil {
					errCh <- fmt.Errorf("worker %d tx %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	pool.Drain()
}

// TestAuditAllEngines: every engine, run under a contended workload with
// injected full and partial crashes, must produce an event stream the
// auditor accepts.
func TestAuditAllEngines(t *testing.T) {
	modes := []struct {
		mode       Mode
		withAborts bool
	}{
		{ModeSimple, true},
		{ModeDynamic, true},
		{ModeUndo, true},
		{ModeCoW, true},
		{ModeNoLog, true},
		{ModeInPlace, false}, // abort requires a copy; replicas have none
	}
	for _, m := range modes {
		t.Run(string(m.mode), func(t *testing.T) {
			rec := trace.NewRecorder(1 << 20)
			pool, err := Create(Options{
				Mode:     m.mode,
				HeapSize: 8 << 20,
				Alpha:    0.5,
				Strict:   true,
				Trace:    rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			runAuditedWorkload(t, pool, m.withAborts)
			if err := pool.Crash(); err != nil {
				t.Fatalf("Crash: %v", err)
			}
			runAuditedWorkload(t, pool, m.withAborts)
			if err := pool.CrashPartial(42); err != nil {
				t.Fatalf("CrashPartial: %v", err)
			}
			runAuditedWorkload(t, pool, m.withAborts)

			events := rec.Events()
			if rec.Dropped() > 0 {
				t.Fatalf("ring wrapped (%d dropped); raise capacity", rec.Dropped())
			}
			// One engine actor per incarnation: create, post-crash,
			// post-partial-crash.
			actors := map[string]bool{}
			for _, e := range events {
				if e.Kind == trace.KindTxBegin {
					actors[e.Actor] = true
				}
			}
			if len(actors) != 3 {
				t.Fatalf("actors = %v, want 3 incarnations", actors)
			}
			if report := trace.AuditAll(events); len(report) != 0 {
				for actor, vs := range report {
					for i, v := range vs {
						if i < 5 {
							t.Errorf("%s: %s", actor, v)
						}
					}
				}
				t.Fatalf("audit failed for %d actor(s)", len(report))
			}
			// The stream must actually contain lifecycle substance.
			var begins, stores int
			for _, e := range events {
				switch e.Kind {
				case trace.KindTxBegin:
					begins++
				case trace.KindInPlaceWrite:
					stores++
				}
			}
			if begins == 0 {
				t.Fatal("no tx_begin events recorded")
			}
			if m.mode != ModeCoW && stores == 0 {
				// CoW writes shadows, not the heap, until commit.
				t.Fatal("no inplace_write events recorded")
			}
		})
	}
}

// TestAuditTracerOverheadShape: with no recorder configured, SetTracer is
// never called and engines carry a nil tracer pointer — the documented
// "one atomic nil check" path. This is a smoke check that the pool does
// not accidentally attach tracers when Options.Trace is nil.
func TestNoTracerByDefault(t *testing.T) {
	pool, err := Create(Options{HeapSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if err := pool.Update(func(tx *Tx) error {
		obj, err := tx.Alloc(64)
		if err != nil {
			return err
		}
		return tx.Write(obj, 0, []byte("x"))
	}); err != nil {
		t.Fatal(err)
	}
}
