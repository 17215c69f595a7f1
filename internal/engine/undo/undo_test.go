package undo_test

import (
	"testing"

	"kaminotx/internal/engine"
	"kaminotx/internal/engine/enginetest"
	"kaminotx/internal/engine/undo"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/nvm"
)

var logCfg = intentlog.Config{Slots: 32, EntriesPerSlot: 32, DataBytesPerSlot: 16 << 10}

// factory builds undo engines over regions of the given device mode: strict
// for the conformance suite's crash cases, fast for the benchmark.
func factory(mode nvm.Mode) enginetest.Factory {
	return enginetest.Factory{
		Name:   "undo",
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
			e, err := undo.New(heapReg, logReg, logCfg)
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
				return undo.Open(heapReg, logReg)
			}
			return inst
		},
	}
}

func TestConformance(t *testing.T) { enginetest.Run(t, factory(nvm.ModeStrict)) }

func BenchmarkTx1(b *testing.B) { enginetest.BenchTx1(b, factory(nvm.ModeFast)) }

func TestStatsCountCriticalCopies(t *testing.T) {
	heapReg, _ := nvm.New(1<<20, nvm.Options{Mode: nvm.ModeStrict})
	logReg, _ := nvm.New(logCfg.RegionSize(), nvm.Options{Mode: nvm.ModeStrict})
	e, err := undo.New(heapReg, logReg, logCfg)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := tx.Alloc(1024)
	if err != nil {
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
	if err := tx2.Write(obj, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.BytesCopiedCritical == 0 {
		t.Error("undo logging reported zero critical-path copy bytes")
	}
	if s.Commits != 2 {
		t.Errorf("commits = %d, want 2", s.Commits)
	}
}
