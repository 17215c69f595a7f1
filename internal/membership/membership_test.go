package membership

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"kaminotx/internal/transport"
)

func nodes(names ...string) []transport.NodeID {
	out := make([]transport.NodeID, len(names))
	for i, n := range names {
		out[i] = transport.NodeID(n)
	}
	return out
}

func TestViewNavigation(t *testing.T) {
	m, err := New(nodes("h", "m1", "m2", "t"))
	if err != nil {
		t.Fatal(err)
	}
	v := m.View()
	if v.ID != 1 || v.Head() != "h" || v.Tail() != "t" {
		t.Errorf("view = %+v", v)
	}
	if p, ok := v.Predecessor("m1"); !ok || p != "h" {
		t.Errorf("pred(m1) = %s %v", p, ok)
	}
	if s, ok := v.Successor("m1"); !ok || s != "m2" {
		t.Errorf("succ(m1) = %s %v", s, ok)
	}
	if _, ok := v.Predecessor("h"); ok {
		t.Error("head has a predecessor")
	}
	if _, ok := v.Successor("t"); ok {
		t.Error("tail has a successor")
	}
	if v.Index("ghost") != -1 {
		t.Error("ghost indexed")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := New(nodes("a", "a")); err == nil {
		t.Error("duplicate member accepted")
	}
}

func TestReportFailureBumpsView(t *testing.T) {
	m, _ := New(nodes("h", "m1", "t"))
	var notified View
	m.Watch(func(v View) { notified = v })
	v, err := m.ReportFailure("m1")
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 2 || len(v.Members) != 2 {
		t.Errorf("view after failure = %+v", v)
	}
	if notified.ID != 2 {
		t.Errorf("watcher saw view %d", notified.ID)
	}
}

func TestReportFailureRefusesBelowTwo(t *testing.T) {
	m, _ := New(nodes("h", "t"))
	if _, err := m.ReportFailure("t"); !errors.Is(err, ErrTooSmall) {
		t.Errorf("shrink below 2 = %v", err)
	}
}

func TestReportFailureUnknown(t *testing.T) {
	m, _ := New(nodes("h", "m", "t"))
	if _, err := m.ReportFailure("ghost"); !errors.Is(err, ErrNotMember) {
		t.Errorf("unknown failure = %v", err)
	}
}

func TestAddTail(t *testing.T) {
	m, _ := New(nodes("h", "t"))
	v, err := m.AddTail("n")
	if err != nil {
		t.Fatal(err)
	}
	if v.Tail() != "n" || v.ID != 2 {
		t.Errorf("after AddTail: %+v", v)
	}
	if _, err := m.AddTail("n"); err == nil {
		t.Error("duplicate AddTail accepted")
	}
}

func TestRejoin(t *testing.T) {
	m, _ := New(nodes("h", "m1", "t"))
	// Member with current view: fine.
	if _, err := m.Rejoin("m1", 1); err != nil {
		t.Errorf("current rejoin = %v", err)
	}
	// View changes; stale believer learns the new view.
	if _, err := m.ReportFailure("t"); err != nil {
		t.Fatal(err)
	}
	v, err := m.Rejoin("m1", 1)
	if err != nil {
		t.Errorf("stale rejoin = %v", err)
	}
	if v.ID != 2 {
		t.Errorf("rejoin view = %d", v.ID)
	}
	// Removed node must be told to rejoin as new.
	if _, err := m.Rejoin("t", 1); !errors.Is(err, ErrNotMember) {
		t.Errorf("removed rejoin = %v", err)
	}
	// Future view claim rejected.
	if _, err := m.Rejoin("m1", 99); err == nil {
		t.Error("future view accepted")
	}
}

func TestWatchDeliversAndCancelStops(t *testing.T) {
	m, err := New(nodes("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	cancel := m.Watch(func(v View) { got = append(got, v.ID) })
	if _, err := m.ReportFailure("b"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("watcher saw %v, want [2]", got)
	}
	cancel()
	if _, err := m.AddTail("d"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("cancelled watcher still notified: %v", got)
	}
}

// TestWatchersConcurrentWithChanges registers and cancels watchers while
// view changes fire from other goroutines. Before changed() snapshotted the
// watcher slice under the lock, this raced (Watch's append vs changed's
// iteration) and corrupted the slice; run with -race to enforce.
func TestWatchersConcurrentWithChanges(t *testing.T) {
	m, err := New(nodes("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churn membership: grow and shrink the tail repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			id := transport.NodeID(fmt.Sprintf("x%d", i))
			if _, err := m.AddTail(id); err != nil {
				t.Error(err)
				return
			}
			if _, err := m.ReportFailure(id); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()
	// Concurrently register watchers and cancel them.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var n atomic.Uint64
				cancel := m.Watch(func(View) { n.Add(1) })
				runtime.Gosched()
				cancel()
			}
		}()
	}
	wg.Wait()
}
