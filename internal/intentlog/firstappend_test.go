package intentlog

import (
	"fmt"
	"testing"

	"kaminotx/internal/nvm"
)

// The first append of a transaction persists the slot header line and the
// entry line under ONE fence (AppendWithData fences its data before it).
// These tests power-fail at that fence with every combination of the two
// lines surviving and check that recovery sees either nothing or the one
// valid entry, with its data.

// recoveredEntries reattaches to reg and returns every entry recovery
// reports, freeing the slots as an engine would.
func recoveredEntries(t *testing.T, reg *nvm.Region) (*Log, []Entry) {
	t.Helper()
	l, err := Attach(reg)
	if err != nil {
		t.Fatal(err)
	}
	var out []Entry
	err = l.Recover(func(v SlotView) error {
		out = append(out, v.Entries...)
		return v.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, out
}

// failAtFence arms reg to power-fail at its n-th fence from now, keeping
// exactly the in-doubt lines for which keep reports true. It returns the
// lines that fence had left in doubt (valid once the fence has been
// reached).
func failAtFence(t *testing.T, reg *nvm.Region, n int, keep func(line int) bool) *[]int {
	t.Helper()
	inDoubt := new([]int)
	reg.SetFenceHook(func() {
		if n--; n > 0 {
			return
		}
		reg.SetFenceHook(nil)
		err := reg.CrashPartial(func(line int) bool {
			*inDoubt = append(*inDoubt, line)
			return keep(line)
		})
		if err != nil {
			t.Error(err)
		}
	})
	return inDoubt
}

func TestFirstAppendTornCombinations(t *testing.T) {
	const data = "old object contents"
	for _, append1 := range []struct {
		name  string
		fence int // the fence header and entry share: AppendWithData fences its data first
		do    func(*TxLog, Entry) error
	}{
		{"Append", 1, func(tx *TxLog, e Entry) error { return tx.Append(e) }},
		{"AppendWithData", 2, func(tx *TxLog, e Entry) error {
			_, err := tx.AppendWithData(e, []byte(data))
			return err
		}},
	} {
		for mask := 0; mask < 4; mask++ {
			keepHdr, keepEnt := mask&1 != 0, mask&2 != 0
			t.Run(fmt.Sprintf("%s/header=%v,entry=%v", append1.name, keepHdr, keepEnt), func(t *testing.T) {
				l := newLog(t, smallCfg)
				// A previous owner leaves a freed header and a stale entry
				// behind in the slot.
				prev, err := l.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := prev.Append(Entry{Op: OpAlloc, Class: 64, Obj: 4096}); err != nil {
					t.Fatal(err)
				}
				if err := prev.SetState(StateCommitted); err != nil {
					t.Fatal(err)
				}
				if err := prev.Release(); err != nil {
					t.Fatal(err)
				}
				tx, err := l.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if tx.Slot() != prev.Slot() {
					t.Fatalf("slot %d not reused (got %d)", prev.Slot(), tx.Slot())
				}
				hdrLine := l.slotOff(tx.slot) / nvm.LineSize
				entLine := l.entryOff(tx.slot, 0) / nvm.LineSize
				inDoubt := failAtFence(t, l.reg, append1.fence, func(line int) bool {
					return (line == hdrLine && keepHdr) || (line == entLine && keepEnt)
				})
				want := Entry{Op: OpWrite, Class: 128, Obj: 8192}
				if err := append1.do(tx, want); err != nil {
					t.Fatal(err)
				}
				sawHdr, sawEnt := false, false
				for _, line := range *inDoubt {
					sawHdr = sawHdr || line == hdrLine
					sawEnt = sawEnt || line == entLine
				}
				if !sawHdr || !sawEnt {
					t.Fatalf("header line %d and entry line %d should both be in doubt at the first append's fence; in doubt: %v",
						hdrLine, entLine, *inDoubt)
				}
				l2, got := recoveredEntries(t, l.reg)
				if keepHdr && keepEnt {
					// Both lines made it, and AppendWithData's copy, fenced
					// before them, with them.
					if len(got) != 1 || got[0].Op != want.Op || got[0].Obj != want.Obj || got[0].Class != want.Class {
						t.Fatalf("recovered %+v, want the one appended entry", got)
					}
					if got[0].DataLen > 0 {
						b, err := l2.reg.ReadSlice(l2.dataOff(tx.slot)+int(got[0].DataOff), int(got[0].DataLen))
						if err != nil || string(b) != data {
							t.Fatalf("entry survived, its data reads %q (%v)", b, err)
						}
					}
					return
				}
				if len(got) != 0 {
					t.Fatalf("torn first append surfaced entries %+v", got)
				}
			})
		}
	}
}

// A torn first append can leave entry 0 tagged with an id no header ever
// recorded. If Attach resumed the id counter from the headers alone, the next
// incarnation would reissue that id, and a second power failure that kept
// only the new transaction's header would validate the stale entry.
func TestTornEntryTagIsNeverReissued(t *testing.T) {
	l := newLog(t, smallCfg)
	tx, err := l.Begin()
	if err != nil {
		t.Fatal(err)
	}
	entLine := l.entryOff(tx.slot, 0) / nvm.LineSize
	failAtFence(t, l.reg, 1, func(line int) bool { return line == entLine })
	if err := tx.Append(Entry{Op: OpAlloc, Class: 64, Obj: 4096}); err != nil {
		t.Fatal(err)
	}
	l2, got := recoveredEntries(t, l.reg)
	if len(got) != 0 {
		t.Fatalf("entry without its header surfaced: %+v", got)
	}
	tx2, err := l2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if tx2.TxID() <= tx.TxID() {
		t.Fatalf("id %d reissued at or below the torn entry's tag %d", tx2.TxID(), tx.TxID())
	}
	if tx2.Slot() != tx.Slot() {
		t.Fatalf("test wants the same slot again: %d vs %d", tx2.Slot(), tx.Slot())
	}
	hdrLine := l2.slotOff(tx2.slot) / nvm.LineSize
	failAtFence(t, l2.reg, 1, func(line int) bool { return line == hdrLine })
	if err := tx2.Append(Entry{Op: OpWrite, Class: 64, Obj: 12288}); err != nil {
		t.Fatal(err)
	}
	if _, got := recoveredEntries(t, l2.reg); len(got) != 0 {
		t.Fatalf("stale entry passed for the new transaction's: %+v", got)
	}
}
