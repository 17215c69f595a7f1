package obs

import (
	"bytes"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryCountersAndPhases(t *testing.T) {
	r := New("test")
	c := r.Counter("commits")
	c.Inc()
	c.Add(2)
	if got := r.Counter("commits").Load(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if r.Counter("commits") != c {
		t.Error("Counter not idempotent")
	}
	r.Gauge("flushes", func() uint64 { return 42 })
	ph := r.Phase(PhaseHeapPersist)
	ph.Observe(time.Millisecond)
	ph.Observe(3 * time.Millisecond)

	s := r.Snapshot()
	if s.Name != "test" {
		t.Errorf("name = %q", s.Name)
	}
	if s.Counters["commits"] != 3 || s.Gauges["flushes"] != 42 {
		t.Errorf("snapshot kvs = %v / %v", s.Counters, s.Gauges)
	}
	hp := s.Phases[PhaseHeapPersist]
	if hp.Count != 2 || hp.Total != 4*time.Millisecond || hp.Max != 3*time.Millisecond {
		t.Errorf("phase snapshot = %+v", hp)
	}
}

func TestAbsorb(t *testing.T) {
	a, b := New("eng"), New("eng")
	a.Counter("commits").Add(5)
	b.Counter("commits").Add(7)
	b.Counter("aborts").Add(1)
	b.Gauge("nvm.main.flushes", func() uint64 { return 10 })
	a.Phase(PhaseCommitPersist).Observe(time.Microsecond)
	b.Phase(PhaseCommitPersist).Observe(3 * time.Microsecond)

	a.Absorb(b)
	s := a.Snapshot()
	if s.Counters["commits"] != 12 || s.Counters["aborts"] != 1 {
		t.Errorf("absorbed counters = %v", s.Counters)
	}
	// Gauges are sampled into counters so the source registry may die.
	if s.Counters["nvm.main.flushes"] != 10 {
		t.Errorf("gauge not sampled: %v", s.Counters)
	}
	ps := s.Phases[PhaseCommitPersist]
	if ps.Count != 2 || ps.Max != 3*time.Microsecond {
		t.Errorf("absorbed phase = %+v", ps)
	}
}

// TestRegistryConcurrent exercises get-or-create, increments, observes and
// snapshots under contention; run with -race.
func TestRegistryConcurrent(t *testing.T) {
	r := New("race")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("ops").Inc()
				r.Phase(PhaseHeapPersist).Observe(time.Microsecond)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["ops"] != 4000 || s.Phases[PhaseHeapPersist].Count != 4000 {
		t.Errorf("counts = %d / %d, want 4000", s.Counters["ops"], s.Phases[PhaseHeapPersist].Count)
	}
}

func TestWriteBreakdown(t *testing.T) {
	r := New("kamino")
	r.Counter("commits").Add(9)
	r.Phase(PhaseIntentPersist).Observe(2 * time.Microsecond)
	r.Phase(PhaseBackupLag).Observe(50 * time.Microsecond)
	var buf bytes.Buffer
	r.Snapshot().WriteBreakdown(&buf)
	out := buf.String()
	for _, want := range []string{"[kamino]", "intent_persist", "backup_lag", "commits=9"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown missing %q:\n%s", want, out)
		}
	}
	// Critical-path order: intent before backup lag.
	if strings.Index(out, "intent_persist") > strings.Index(out, "backup_lag") {
		t.Errorf("phases out of order:\n%s", out)
	}
}

// The hub's one rendering is /metrics: ?label= filters the published
// registries by substring, Set replaces a label in place and Remove drops
// it.
func TestHubLabelFilter(t *testing.T) {
	h := NewHub()
	for _, label := range []string{"kamino-simple", "kamino-dynamic", "undo"} {
		r := New(label)
		r.Counter("commits").Inc()
		h.Set(label, r)
	}

	// served scrapes target and returns the registry labels of its commits
	// series, in order.
	served := func(target string) []string {
		rec := httptest.NewRecorder()
		h.PromHandler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", target, rec.Code)
		}
		var labels []string
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, `kaminotx_commits_total{registry="`); ok {
				labels = append(labels, rest[:strings.IndexByte(rest, '"')])
			}
		}
		return labels
	}
	for _, tc := range []struct {
		target string
		want   []string
	}{
		{"/metrics?label=kamino", []string{"kamino-simple", "kamino-dynamic"}},
		{"/metrics?label=undo", []string{"undo"}},
		{"/metrics?label=nomatch", nil},
		{"/metrics", []string{"kamino-simple", "kamino-dynamic", "undo"}},
	} {
		if got := served(tc.target); !slices.Equal(got, tc.want) {
			t.Errorf("%s served registries %v, want %v", tc.target, got, tc.want)
		}
	}

	replacement := New("undo")
	replacement.Counter("commits").Add(4)
	h.Set("undo", replacement)
	if got := served("/metrics?label=undo"); !slices.Equal(got, []string{"undo"}) {
		t.Errorf("after replacing a label: %v, want one undo entry", got)
	}
}
