package pbtree

import (
	"bytes"
	"testing"

	"kaminotx/kamino"
)

// leafOf descends physically to the leaf that holds (or would hold) key.
func leafOf(t *testing.T, tree *Tree, key uint64) kamino.ObjID {
	t.Helper()
	cur, err := tree.rootPtr()
	if err != nil {
		t.Fatal(err)
	}
	for {
		nd, err := tree.nodeView(cur)
		if err != nil {
			t.Fatal(err)
		}
		if nd.leaf() {
			return cur
		}
		cur = nd.child(key)
	}
}

// TestPutInLeafWriteSet pins which of putInLeaf's paths declare a write
// intent on the leaf: overwriting a value in place must not (the leaf is
// only read), while replacing an outgrown value object and inserting a key
// both store into the leaf and must.
func TestPutInLeafWriteSet(t *testing.T) {
	for _, mode := range []kamino.Mode{kamino.ModeSimple, kamino.ModeUndo, kamino.ModeCoW} {
		tree := newTree(t, mode, 8)
		for k := uint64(0); k < 40; k++ {
			if err := tree.Put(k*10, bytes.Repeat([]byte{byte(k)}, 100)); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			name     string
			key      uint64
			val      []byte
			wantLeaf bool
		}{
			{"in-place", 200, bytes.Repeat([]byte{0xAA}, 100), false},
			{"in-place, shorter", 200, []byte("short"), false},
			{"replace", 210, bytes.Repeat([]byte{0xBB}, 1000), true},
			{"insert", 205, bytes.Repeat([]byte{0xCC}, 100), true},
		} {
			leaf := leafOf(t, tree, c.key)
			if nd, err := tree.nodeView(leaf); err != nil || nd.nkeys() == tree.order {
				t.Fatalf("%s: leaf unusable for the test (full or unreadable: %v)", c.name, err)
			}
			var touched []kamino.ObjID
			err := tree.pool.Update(func(tx *kamino.Tx) error {
				if err := tree.putInLeaf(tx, leaf, c.key, c.val, nil); err != nil {
					return err
				}
				touched = tx.TouchedObjects()
				return nil
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, c.name, err)
			}
			gotLeaf := false
			for _, obj := range touched {
				gotLeaf = gotLeaf || obj == leaf
			}
			if gotLeaf != c.wantLeaf {
				t.Errorf("%s/%s: leaf in write set = %v, want %v (touched %v)", mode, c.name, gotLeaf, c.wantLeaf, touched)
			}
			if !c.wantLeaf && len(touched) != 1 {
				t.Errorf("%s/%s: touched %v, want the value object alone", mode, c.name, touched)
			}
			got, ok, err := tree.Get(c.key)
			if err != nil || !ok || !bytes.Equal(got, c.val) {
				t.Errorf("%s/%s: Get = %d bytes, %v, %v", mode, c.name, len(got), ok, err)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
	}
}

// TestModifySeesOldValue: the read-modify-write path still hands fn a copy of
// the current value (Put skips that copy; Modify must not).
func TestModifySeesOldValue(t *testing.T) {
	tree := newTree(t, kamino.ModeSimple, 8)
	if err := tree.Put(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	err := tree.Modify(1, func(old []byte, found bool) ([]byte, error) {
		if !found || string(old) != "one" {
			t.Errorf("fn saw (%q, %v)", old, found)
		}
		old[0] = 'X' // a copy: scribbling on it must not reach the tree
		return []byte("uno"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = tree.Modify(2, func(old []byte, found bool) ([]byte, error) {
		if found || old != nil {
			t.Errorf("fn saw (%q, %v) for an absent key", old, found)
		}
		return []byte("two"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[uint64]string{1: "uno", 2: "two"} {
		if got, ok, err := tree.Get(k); err != nil || !ok || string(got) != want {
			t.Errorf("Get(%d) = %q %v %v, want %q", k, got, ok, err, want)
		}
	}
}
