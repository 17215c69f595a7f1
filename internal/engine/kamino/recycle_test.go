package kamino

import (
	"testing"

	"kaminotx/internal/engine"
	"kaminotx/internal/heap"
	"kaminotx/internal/nvm"
)

// gatedBackend holds every backup sync until gate is closed: the applier is
// stopped in the middle of a committed transaction's write set.
type gatedBackend struct {
	backend
	gate    chan struct{}
	arrived chan heap.ObjID
}

func (g gatedBackend) syncToBackup(obj heap.ObjID, dirty engine.Extent, path copyPath) error {
	g.arrived <- obj
	<-g.gate
	return g.backend.syncToBackup(obj, dirty, path)
}

// TestWriteSetNotReusedBeforeApplierReleasesIt commits a transaction and
// stops its applier mid-sync, then runs transactions while the applier still
// reads the first one's write set: each must get a state of its own (the
// first is recycled by the applier, after its locks, not at commit), see
// only its own object in its write set, and leave the held one alone. Once
// the gate opens the first write set's lock is released and its state comes
// back for reuse, empty.
func TestWriteSetNotReusedBeforeApplierReleasesIt(t *testing.T) {
	mainReg, backupReg, logReg := regionsMode(t, mainSize, nvm.ModeFast)
	cfg := testCfg
	cfg.ApplierWorkers = 1
	e, err := New(mainReg, backupReg, logReg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	objs := make([]heap.ObjID, 4)
	for i := range objs {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if objs[i], err = tx.Alloc(64); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	gate := gatedBackend{backend: e.backend, gate: make(chan struct{}), arrived: make(chan heap.ObjID, 16)}
	e.backend = gate

	begin := func(obj heap.ObjID) *tx {
		t.Helper()
		et, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		tx := et.(*tx)
		if err := tx.Add(obj); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(obj, 0, []byte{byte(obj)}); err != nil {
			t.Fatal(err)
		}
		if ws := tx.WriteSet(); len(ws) != 1 || !ws[obj].Writable {
			t.Fatalf("write set of a transaction on %d: %v", obj, ws)
		}
		return tx
	}
	first := begin(objs[0])
	held := first.TxState
	if err := first.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := <-gate.arrived; got != objs[0] {
		t.Fatalf("applier is syncing %d, want %d", got, objs[0])
	}
	if first.TxState != nil || !first.Done() {
		t.Fatal("committed transaction kept its state")
	}
	for _, obj := range objs[1:] {
		later := begin(obj)
		if later.TxState == held {
			t.Fatal("a write set the applier still holds was handed to a new transaction")
		}
		if err := later.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if ws := held.WriteSet(); len(ws) != 1 || !e.Locks().Locked(uint64(objs[0])) {
		t.Fatalf("held write set changed under the applier: %v (object locked: %v)", ws, e.Locks().Locked(uint64(objs[0])))
	}
	close(gate.gate)
	e.Drain()
	for _, obj := range objs {
		if e.Locks().Locked(uint64(obj)) {
			t.Errorf("object %d still locked after Drain", obj)
		}
	}
	if ws := held.WriteSet(); len(ws) != 0 {
		t.Errorf("recycled write set is not empty: %v", ws)
	}
}
