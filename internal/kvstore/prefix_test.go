package kvstore

import (
	"fmt"
	"testing"

	"kaminotx/kamino"
)

func TestPrefixedStoreIsolation(t *testing.T) {
	_, s := newStore(t, kamino.ModeSimple)
	tenants, err := LoadTenants(s)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tenants.Ensure("alpha")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tenants.Ensure("beta")
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() == b.ID() || a.ID() == 0 || b.ID() == 0 {
		t.Fatalf("tenant ids: alpha=%d beta=%d", a.ID(), b.ID())
	}
	for i := uint64(0); i < 20; i++ {
		if err := a.Insert(i, []byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Insert(5, []byte("b5")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := a.Read(5)
	if err != nil || !ok || string(v) != "a5" {
		t.Fatalf("alpha Read(5) = %q %v %v", v, ok, err)
	}
	v, _, _ = b.Read(5)
	if string(v) != "b5" {
		t.Fatalf("beta Read(5) = %q", v)
	}
	if _, ok, _ := b.Read(6); ok {
		t.Error("beta sees alpha's key 6")
	}
	// Deleting in beta never touches alpha's records.
	if found, err := b.Delete(5); err != nil || !found {
		t.Fatalf("beta Delete(5) = %v %v", found, err)
	}
	if _, ok, _ := a.Read(5); !ok {
		t.Error("beta delete removed alpha's key")
	}
}

func TestPrefixedStoreKeyRange(t *testing.T) {
	_, s := newStore(t, kamino.ModeSimple)
	tenants, err := LoadTenants(s)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tenants.Ensure("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(MaxTenantKey, []byte("edge")); err != nil {
		t.Fatalf("max key rejected: %v", err)
	}
	if err := a.Insert(MaxTenantKey+1, []byte("x")); err != ErrKeyRange {
		t.Fatalf("out-of-range insert: err = %v, want ErrKeyRange", err)
	}
	if _, _, err := a.Read(MaxTenantKey + 1); err != ErrKeyRange {
		t.Fatalf("out-of-range read: err = %v", err)
	}
	// The edge key must not leak into a neighbor tenant's slice.
	b, err := tenants.Ensure("beta")
	if err != nil {
		t.Fatal(err)
	}
	from, err := b.Global(0)
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := s.Scan(from, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 0 {
		t.Fatalf("beta's slice holds alpha's edge key: %v", kvs)
	}
}

func TestTenantRegistryDurable(t *testing.T) {
	p, s := newStore(t, kamino.ModeSimple)
	tenants, err := LoadTenants(s)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"red", "green", "blue"}
	ids := make(map[string]TenantID)
	for _, name := range names {
		ps, err := tenants.Ensure(name)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = ps.ID()
		if err := ps.Insert(1, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	// Reloading from the same store recovers identical name→id bindings.
	reloaded, err := LoadTenants(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		ps, ok := reloaded.Lookup(name)
		if !ok || ps.ID() != ids[name] {
			t.Fatalf("reload lost tenant %q (ok=%v)", name, ok)
		}
	}
	// Ensure after reload must NOT mint a new id for a known name.
	ps, err := reloaded.Ensure("green")
	if err != nil || ps.ID() != ids["green"] {
		t.Fatalf("Ensure(green) after reload = id %d, want %d (%v)", ps.ID(), ids["green"], err)
	}
	if _, ok := reloaded.Lookup("black"); ok {
		t.Fatal("reload invented an unregistered tenant")
	}
	// And the registry survives a crash like any other data.
	if err := p.Crash(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := LoadTenants(s2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		ps, ok := crashed.Lookup(name)
		if !ok || ps.ID() != ids[name] {
			t.Fatalf("crash reload lost tenant %q", name)
		}
		v, ok, err := ps.Read(1)
		if err != nil || !ok || string(v) != name {
			t.Fatalf("tenant %q data after crash = %q %v %v", name, v, ok, err)
		}
	}
}

func TestStoreApplyBatch(t *testing.T) {
	_, s := newStore(t, kamino.ModeSimple)
	for i := uint64(0); i < 10; i++ {
		if err := s.Insert(i, []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	// ApplyBatch sorts internally: hand it deliberately unsorted ops.
	ops := []Op{
		{Key: 9, Value: []byte("nine")},
		{Key: 3, Delete: true},
		{Key: 100, Value: []byte("hundred")},
	}
	if err := s.ApplyBatch(ops); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if v, _, _ := s.Read(9); string(v) != "nine" {
		t.Errorf("Read(9) = %q", v)
	}
	if _, ok, _ := s.Read(3); ok {
		t.Error("deleted key 3 still present")
	}
	if v, _, _ := s.Read(100); string(v) != "hundred" {
		t.Errorf("Read(100) = %q", v)
	}
}
