package server

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"kaminotx/internal/transport"
)

func TestSlowLogKeepsSlowest(t *testing.T) {
	l := NewSlowLog(4, time.Hour)
	for i := 1; i <= 10; i++ {
		l.Insert(SlowRecord{Trace: uint64(i), WallNs: int64(i) * 1000, Start: time.Now()})
	}
	recs := l.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if want := int64(10-i) * 1000; r.WallNs != want {
			t.Errorf("recs[%d].WallNs = %d, want %d (slowest-first)", i, r.WallNs, want)
		}
	}
	if l.Floor() != 7000 {
		t.Errorf("floor = %d, want 7000", l.Floor())
	}
}

func TestSlowLogWindowEviction(t *testing.T) {
	l := NewSlowLog(4, 10*time.Millisecond)
	l.Insert(SlowRecord{Trace: 1, WallNs: 9999, Start: time.Now().Add(-time.Second)})
	l.Insert(SlowRecord{Trace: 2, WallNs: 5, Start: time.Now()})
	recs := l.Snapshot()
	if len(recs) != 1 || recs[0].Trace != 2 {
		t.Fatalf("stale record survived the window: %+v", recs)
	}
}

// TestSlowLogStaleFloor fills the ring, lets every record age out, and
// requires the floor to lapse with them: Floor reads 0 without a
// Snapshot, and a request faster than the expired floor enters the ring.
func TestSlowLogStaleFloor(t *testing.T) {
	l := NewSlowLog(2, 50*time.Millisecond)
	l.Insert(SlowRecord{Trace: 1, WallNs: 1000, Start: time.Now()})
	l.Insert(SlowRecord{Trace: 2, WallNs: 900, Start: time.Now()})
	if l.Floor() != 900 {
		t.Fatalf("floor of a full ring = %d, want 900", l.Floor())
	}
	time.Sleep(100 * time.Millisecond)
	if f := l.Floor(); f != 0 {
		t.Errorf("floor = %d after every record aged out, want 0", f)
	}
	l.Insert(SlowRecord{Trace: 3, WallNs: 10, Start: time.Now()})
	if recs := l.Snapshot(); len(recs) != 1 || recs[0].Trace != 3 {
		t.Fatalf("ring = %+v, want only the current 10 ns request", recs)
	}
}

// TestSlowLogConcurrent hammers the ring from many goroutines while
// snapshots and the HTTP handler read it — the -race pass for the
// always-on insert path.
func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(16, time.Hour)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Insert(SlowRecord{
					Trace:  uint64(g<<16 | i),
					WallNs: int64((g*31 + i*17) % 4096),
					Start:  time.Now(),
				})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			l.Snapshot()
			l.Floor()
		}
	}()
	wg.Wait()
	recs := l.Snapshot()
	if len(recs) == 0 || len(recs) > 16 {
		t.Fatalf("ring holds %d records, want 1..16", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].WallNs > recs[i-1].WallNs {
			t.Fatalf("ring out of order at %d: %d > %d", i, recs[i].WallNs, recs[i-1].WallNs)
		}
	}
}

// TestSlowLogHandler checks /debug/requests' JSON, whose phase_ns object
// names each phase by its transport.KVPhase name.
func TestSlowLogHandler(t *testing.T) {
	l := NewSlowLog(4, time.Hour)
	l.Insert(SlowRecord{Trace: 1, Kind: "put", WallNs: 1234, Start: time.Now(),
		Phases: Phases{1, 2, 3, 4, 5, 6}})
	rr := httptest.NewRecorder()
	l.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/requests", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	var body struct {
		Capacity int `json:"capacity"`
		Records  []struct {
			WallNs int64            `json:"wall_ns"`
			Phases map[string]int64 `json:"phase_ns"`
		} `json:"records"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("handler body is not JSON: %v\n%s", err, rr.Body.String())
	}
	if body.Capacity != 4 || len(body.Records) != 1 || body.Records[0].WallNs != 1234 {
		t.Fatalf("handler body wrong: %+v", body)
	}
	phases := body.Records[0].Phases
	if len(phases) != int(transport.KVPhaseCount) {
		t.Errorf("phase_ns has %d keys, want %d: %v", len(phases), transport.KVPhaseCount, phases)
	}
	for ph := transport.KVPhase(0); ph < transport.KVPhaseCount; ph++ {
		if got, ok := phases[ph.String()]; !ok || got != int64(ph)+1 {
			t.Errorf("phase_ns[%q] = %d, %v; want %d", ph, got, ok, ph+1)
		}
	}
}
