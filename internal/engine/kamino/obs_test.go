package kamino

import (
	"testing"
	"time"

	"kaminotx/internal/obs"
)

// TestObsPhasesRecorded: committed transactions must leave latency in every
// critical-path phase the engine claims, plus backup-sync/lag once drained.
func TestObsPhasesRecorded(t *testing.T) {
	m, b, l := regions(t, mainSize)
	e, err := New(m, b, l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 5; i++ {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		obj, err := tx.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(obj, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	s := e.Obs().Snapshot()
	if s.Name != "kamino" {
		t.Errorf("registry name = %q", s.Name)
	}
	if s.Counters["commits"] != 5 {
		t.Errorf("commits = %d, want 5", s.Counters["commits"])
	}
	for _, p := range []obs.Phase{
		obs.PhaseIntentPersist, obs.PhaseHeapPersist, obs.PhaseCommitPersist,
		obs.PhaseBackupSync, obs.PhaseBackupLag,
	} {
		ps := s.Phases[p]
		if ps.Count == 0 {
			t.Errorf("phase %s never observed", p)
			continue
		}
		if ps.Total <= 0 || ps.Total > time.Minute {
			t.Errorf("phase %s total %v implausible", p, ps.Total)
		}
	}
	if s.Gauges["nvm.main.lines_flushed"] == 0 || s.Gauges["nvm.log.lines_flushed"] == 0 {
		t.Errorf("NVM gauges not exported: %v", s.Gauges)
	}
}
