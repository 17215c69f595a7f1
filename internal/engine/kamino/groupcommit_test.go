package kamino

import (
	"testing"

	"kaminotx/internal/engine/enginetest"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
)

var gcCfg = Config{
	Log:         intentlog.Config{Slots: 32, EntriesPerSlot: 32, DataBytesPerSlot: 0},
	GroupCommit: true,
}

// TestConformanceGroupCommit: the full engine contract (visibility, abort,
// isolation, crash atomicity) must hold unchanged with the group committer
// on the commit path.
func TestConformanceGroupCommit(t *testing.T) {
	enginetest.Run(t, factory("kamino-simple/groupcommit", mainSize, gcCfg, nvm.ModeStrict))
}

// TestGroupCommitAbsorbsConcurrentMarkers: under concurrent commit load the
// committer must batch markers (epochs < transactions), account every
// transaction, and route latency into group_commit_wait instead of
// commit_persist.
func TestGroupCommitAbsorbsConcurrentMarkers(t *testing.T) {
	m, b, l := regions(t, mainSize)
	e, err := New(m, b, l, gcCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const workers = 8
	const txsPerWorker = 50

	// One object per worker avoids lock conflicts so commits overlap.
	objs := allocObjs(t, e, workers)
	commitLoad(t, e, objs, txsPerWorker)
	if t.Failed() {
		t.FailNow()
	}
	e.Drain()

	// Snapshot before the verification reads: read-only transactions also
	// commit through the group committer and would skew the counts.
	s := e.Obs().Snapshot()
	for w, obj := range objs {
		buf := readTx(t, e, obj, 2)
		if buf[0] != byte(txsPerWorker-1) || buf[1] != byte(w) {
			t.Errorf("worker %d final value = %v, want [%d %d]", w, buf, txsPerWorker-1, w)
		}
	}

	total := uint64(workers*txsPerWorker + workers)
	if s.Counters["group_committed_txs"] != total {
		t.Errorf("group_committed_txs = %d, want %d", s.Counters["group_committed_txs"], total)
	}
	epochs := s.Counters["group_commit_epochs"]
	if epochs == 0 || epochs > total {
		t.Errorf("group_commit_epochs = %d, want in [1, %d]", epochs, total)
	}
	if got := s.Phases[obs.PhaseGroupCommitWait].Count; got != total {
		t.Errorf("group_commit_wait observations = %d, want %d", got, total)
	}
	if got := s.Phases[obs.PhaseCommitPersist].Count; got != 0 {
		t.Errorf("commit_persist observations = %d, want 0 under group commit", got)
	}
	t.Logf("group commit: %d txs in %d epochs", total, epochs)
}

// TestGroupCommitCrashRecovery: transactions committed through the group
// committer must survive a strict-mode crash exactly like individually
// persisted markers.
func TestGroupCommitCrashRecovery(t *testing.T) {
	m, b, l := regions(t, mainSize)
	e, err := New(m, b, l, gcCfg)
	if err != nil {
		t.Fatal(err)
	}

	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := tx.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("group-committed!")
	if err := tx.Write(obj, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.Drain()

	for _, r := range []*nvm.Region{m, b, l} {
		if err := r.Crash(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(m, b, l, gcCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got := readTx(t, e2, obj, len(want))
	if string(got) != string(want) {
		t.Errorf("after crash: %q, want %q", got, want)
	}
}

// readTx reads the first n bytes of obj through a transaction.
func readTx(t *testing.T, e *Engine, obj heap.ObjID, n int) []byte {
	t.Helper()
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tx.Read(obj)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), b[:n]...)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return out
}
