package main

import (
	"testing"

	"kaminotx/kamino"
)

// TestOpenGivesAStorelessPoolAStore: a first start killed after
// kamino.Create wrote pool.json but before kvstore.Create committed leaves a
// pool whose root holds no store. The next start creates the store there
// instead of failing on every later start.
func TestOpenGivesAStorelessPoolAStore(t *testing.T) {
	dir := t.TempDir()
	opts := kamino.Options{HeapSize: 4 << 20, Dir: dir}
	pool, err := kamino.Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	pool, store, err := open(dir, opts)
	if err != nil {
		t.Fatalf("open of a pool without a store: %v", err)
	}
	if err := store.Insert(1, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	pool, store, err = open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if got, ok, err := store.Read(1); err != nil || !ok || string(got) != "kept" {
		t.Errorf("key 1 after a restart: %q, %v, %v", got, ok, err)
	}
}
