package kamino

import (
	"bytes"
	"errors"
	"testing"

	"kaminotx/internal/engine"
	"kaminotx/internal/locktable"
)

// spentCalls is every operation of a Tx that can fail: a spent handle must
// answer each with ErrTxDone, however long it is kept and whatever has
// happened to the state the engine recycled from under it.
func spentCalls(tx *Tx, obj ObjID) map[string]error {
	calls := map[string]error{
		"Add":       tx.Add(obj),
		"Lock":      tx.Lock(obj),
		"Write":     tx.Write(obj, 0, []byte{1}),
		"Free":      tx.Free(obj),
		"Commit":    tx.Commit(),
		"Abort":     tx.Abort(),
		"SetUint64": tx.SetUint64(obj, 0, 1),
		"SetUint32": tx.SetUint32(obj, 0, 1),
		"SetPtr":    tx.SetPtr(obj, 0, obj),
		"SetString": tx.SetString(obj, 0, "x"),
	}
	_, calls["Read"] = tx.Read(obj)
	_, calls["ReadAt"] = tx.ReadAt(obj, 0, 1)
	_, calls["Alloc"] = tx.Alloc(16)
	_, calls["Uint64"] = tx.Uint64(obj, 0)
	_, calls["Uint32"] = tx.Uint32(obj, 0)
	_, calls["Ptr"] = tx.Ptr(obj, 0)
	_, calls["String"] = tx.String(obj, 0)
	return calls
}

// TestSpentHandleOutlivesRecycledState keeps a committed and an aborted
// transaction's handles while later transactions run on the state the
// engine recycled from them. With drain set the later ones start after the
// backup applier has let the first write set go (Kamino modes; the others
// recycle at commit); without, they start while it may still hold it, and
// must be given another. Either way every lock ends released, every object
// holds what its own transaction wrote, and the kept handles still say
// ErrTxDone and still report their own id and touched objects.
func TestSpentHandleOutlivesRecycledState(t *testing.T) {
	for _, mode := range Modes() {
		for _, drain := range []bool{true, false} {
			name := string(mode) + "/no-drain"
			if drain {
				name = string(mode) + "/drain"
			}
			t.Run(name, func(t *testing.T) {
				p := testPool(t, mode)
				const objects = 8
				objs := make([]ObjID, objects)
				err := p.Update(func(tx *Tx) error {
					for i := range objs {
						var err error
						if objs[i], err = tx.Alloc(64); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				p.Drain()

				write := func(i, round int) (*Tx, error) {
					tx, err := p.Begin()
					if err != nil {
						return nil, err
					}
					if err := tx.Add(objs[i]); err != nil {
						return nil, err
					}
					return tx, tx.Write(objs[i], 0, bytes.Repeat([]byte{byte(round)}, 64))
				}
				var want [objects]byte // what each object was last filled with
				committed, err := write(0, 1)
				if err == nil {
					err = committed.Commit()
				}
				if err != nil {
					t.Fatal(err)
				}
				want[0] = 1
				aborted, err := p.Begin()
				if err == nil {
					_, err = aborted.Read(objs[1])
				}
				if err == nil {
					err = aborted.Abort()
				}
				if err != nil {
					t.Fatal(err)
				}
				ids := [2]uint64{committed.ID(), aborted.ID()}

				for round := 2; round < 40; round++ {
					if drain {
						p.Drain()
					}
					i := 1 + round%(objects-1) // never object 0: its value is the kept handle's
					tx, err := write(i, round)
					if err == nil {
						if got := tx.TouchedObjects(); len(got) != 1 || got[0] != objs[i] {
							t.Fatalf("round %d touched %v, want [%d]", round, got, objs[i])
						}
						err = tx.Commit()
					}
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					want[i] = byte(round)
				}
				p.Drain()

				for i, tx := range []*Tx{committed, aborted} {
					for call, err := range spentCalls(tx, objs[2]) {
						if !errors.Is(err, engine.ErrTxDone) {
							t.Errorf("kept handle %d: %s = %v, want ErrTxDone", i, call, err)
						}
					}
					if tx.ID() != ids[i] {
						t.Errorf("kept handle %d: ID %d became %d", i, ids[i], tx.ID())
					}
				}
				if got := committed.TouchedObjects(); len(got) != 1 || got[0] != objs[0] {
					t.Errorf("kept handle's touched objects = %v, want [%d]", got, objs[0])
				}
				locks := p.Engine().(interface{ Locks() *locktable.Table }).Locks()
				for i, obj := range objs {
					if locks.Locked(uint64(obj)) {
						t.Errorf("object %d still write-locked after Drain", i)
					}
				}
				err = p.View(func(tx *Tx) error {
					for i, obj := range objs {
						b, err := tx.Read(obj)
						if err != nil {
							return err
						}
						if !bytes.Equal(b[:64], bytes.Repeat([]byte{want[i]}, 64)) {
							t.Errorf("object %d holds %d…, want %d…", i, b[0], want[i])
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
