package intentlog

import (
	"bytes"
	"encoding/binary"
	"testing"

	"kaminotx/internal/nvm"
)

// fuzzImage is a log with one committed and one running transaction, both
// with entries and data: the durable image a crash leaves.
func fuzzImage(f *testing.F) []byte {
	reg, err := nvm.New(smallCfg.RegionSize(), nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		f.Fatal(err)
	}
	l, err := Format(reg, smallCfg)
	if err != nil {
		f.Fatal(err)
	}
	for i, st := range []State{StateCommitted, StateRunning} {
		tx, err := l.Begin()
		if err != nil {
			f.Fatal(err)
		}
		if _, err := tx.AppendWithData(Entry{Op: OpWrite, Class: 64, Obj: 4096}, bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			f.Fatal(err)
		}
		if err := tx.Append(Entry{Op: OpAlloc, Class: 128, Obj: 8192}); err != nil {
			f.Fatal(err)
		}
		if st == StateCommitted {
			if err := tx.SetState(st); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := reg.Crash(); err != nil {
		f.Fatal(err)
	}
	img, err := reg.ReadSlice(0, reg.Size())
	if err != nil {
		f.Fatal(err)
	}
	return bytes.Clone(img)
}

// FuzzIntentLogAttach feeds Attach corrupted log images, as a restart reads
// them from disk. Attach must answer with an error or a log whose recovery
// either refuses a slot or visits each pending one with at most a slot's
// entries, frees them all, and leaves a log that records a new transaction.
func FuzzIntentLogAttach(f *testing.F) {
	img := fuzzImage(f)
	f.Add(img)
	word := func(off int, v uint32) {
		c := bytes.Clone(img)
		binary.LittleEndian.PutUint32(c[off:], v)
		f.Add(c)
	}
	slot1 := hdrSize + smallCfg.slotSize()
	word(hOffMagic, 0)
	word(hOffSlots, 1<<31)
	word(hOffEntries, 1<<30)
	word(hdrSize+sOffNEnt, 1<<31) // a count past the slot's capacity
	word(slot1+sOffState, 99)     // an unknown state
	word(hdrSize+slotHdrSize+eOffDataLen, 1<<31)
	word(hdrSize+slotHdrSize+eOffDataOff, 1<<31)
	f.Add(img[:hdrSize+10])

	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) == 0 || len(img) > 1<<16 {
			return
		}
		reg, err := nvm.New(len(img), nvm.Options{Mode: nvm.ModeStrict})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Write(0, img); err != nil {
			t.Fatal(err)
		}
		l, err := Attach(reg)
		if err != nil {
			return
		}
		cfg := l.Config()
		err = l.Recover(func(v SlotView) error {
			if len(v.Entries) > cfg.EntriesPerSlot {
				t.Fatalf("slot %d: %d entries, capacity %d", v.Slot, len(v.Entries), cfg.EntriesPerSlot)
			}
			for _, e := range v.Entries {
				if _, err := v.Data(e.DataOff, int(e.DataLen)); err != nil {
					return err // an engine's recovery stops on it too
				}
			}
			return v.Free()
		})
		if err != nil {
			return
		}
		if n, err := l.PendingSlots(); err != nil || n != 0 {
			t.Fatalf("%d slots pending after recovery (%v)", n, err)
		}
		tx, err := l.TryBegin()
		if err != nil {
			t.Fatalf("no slot after recovery: %v", err)
		}
		want := Entry{Op: OpWrite, Class: 64, Obj: 4096}
		if err := tx.Append(want); err != nil {
			t.Fatal(err)
		}
		if got, err := tx.Entries(); err != nil || len(got) != 1 || got[0] != want {
			t.Fatalf("a new transaction reads back %v, %v", got, err)
		}
		if err := tx.SetState(StateCommitted); err != nil {
			t.Fatal(err)
		}
		if err := tx.Release(); err != nil {
			t.Fatal(err)
		}
	})
}
