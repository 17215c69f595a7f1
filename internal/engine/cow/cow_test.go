package cow_test

import (
	"testing"

	"kaminotx/internal/engine"
	"kaminotx/internal/engine/cow"
	"kaminotx/internal/engine/enginetest"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/nvm"
)

var logCfg = intentlog.Config{Slots: 32, EntriesPerSlot: 32, DataBytesPerSlot: 16 << 10}

// factory builds cow engines over regions of the given device mode: strict
// for the conformance suite's crash cases, fast for the benchmark.
func factory(mode nvm.Mode) enginetest.Factory {
	return enginetest.Factory{
		Name:   "cow",
		Atomic: true,
		New: func(t testing.TB) *enginetest.Instance {
			heapReg, err := nvm.New(1<<20, nvm.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			logReg, err := nvm.New(logCfg.RegionSize(), nvm.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			e, err := cow.New(heapReg, logReg, logCfg)
			if err != nil {
				t.Fatal(err)
			}
			inst := &enginetest.Instance{Engine: e}
			inst.Crash = func() (engine.Engine, error) {
				if err := heapReg.Crash(); err != nil {
					return nil, err
				}
				if err := logReg.Crash(); err != nil {
					return nil, err
				}
				return cow.Open(heapReg, logReg)
			}
			return inst
		},
	}
}

func TestConformance(t *testing.T) { enginetest.Run(t, factory(nvm.ModeStrict)) }

func BenchmarkTx1(b *testing.B) { enginetest.BenchTx1(b, factory(nvm.ModeFast)) }

// CoW-specific: the original must be untouched until commit.
func TestOriginalUntouchedBeforeCommit(t *testing.T) {
	heapReg, _ := nvm.New(1<<20, nvm.Options{Mode: nvm.ModeStrict})
	logReg, _ := nvm.New(logCfg.RegionSize(), nvm.Options{Mode: nvm.ModeStrict})
	e, err := cow.New(heapReg, logReg, logCfg)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := tx.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(obj, 0, []byte("original")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Write(obj, 0, []byte("shadowed")); err != nil {
		t.Fatal(err)
	}
	// Heap (outside the transaction) still sees the original.
	b, err := e.Heap().Bytes(obj)
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:8]) != "original" {
		t.Errorf("original modified before commit: %q", b[:8])
	}
	// But the transaction sees its own write.
	own, err := tx2.Read(obj)
	if err != nil {
		t.Fatal(err)
	}
	if string(own[:8]) != "shadowed" {
		t.Errorf("tx does not see its shadow: %q", own[:8])
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	b, _ = e.Heap().Bytes(obj)
	if string(b[:8]) != "shadowed" {
		t.Errorf("shadow not applied at commit: %q", b[:8])
	}
}
