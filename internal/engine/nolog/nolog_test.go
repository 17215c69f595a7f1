package nolog_test

import (
	"testing"

	"kaminotx/internal/engine/enginetest"
	"kaminotx/internal/engine/nolog"
	"kaminotx/internal/nvm"
)

func factory(mode nvm.Mode) enginetest.Factory {
	return enginetest.Factory{
		Name:   "nolog",
		Atomic: false,
		New: func(t testing.TB) *enginetest.Instance {
			reg, err := nvm.New(1<<20, nvm.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			e, err := nolog.New(reg)
			if err != nil {
				t.Fatal(err)
			}
			return &enginetest.Instance{Engine: e}
		},
	}
}

func TestConformance(t *testing.T) { enginetest.Run(t, factory(nvm.ModeStrict)) }

func BenchmarkTx1(b *testing.B) { enginetest.BenchTx1(b, factory(nvm.ModeFast)) }

func TestReopen(t *testing.T) {
	reg, err := nvm.New(1<<20, nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	e, err := nolog.New(reg)
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
	if err := tx.Write(obj, 0, []byte("persists")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Crash(); err != nil {
		t.Fatal(err)
	}
	e2, err := nolog.Open(reg)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := e2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tx2.Read(obj)
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:8]) != "persists" {
		t.Errorf("committed data lost: %q", b[:8])
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}
