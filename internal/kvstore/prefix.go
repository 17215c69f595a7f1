package kvstore

import (
	"fmt"
	"sync"
)

// Multi-tenant keyspaces, modeled on the layered PrefixedStore→RootStore
// split of namespaced KV stores: one physical Store (the root store) holds
// every tenant's records, and each tenant sees a PrefixedStore that maps
// its local 48-bit keys into a disjoint slice of the root store's 64-bit
// key space by stamping the tenant id into the top 16 bits. Tenant id 0 is
// reserved for the registry itself — a durable table of tenant names
// stored as ordinary records in the id-0 slice, so the tenant set survives
// crashes and reopens exactly like the data (same engine, same atomicity).

// TenantID names one tenant's keyspace. ID 0 is reserved for the registry.
type TenantID uint16

// tenantShift positions the tenant id in the top 16 bits of a root key.
const tenantShift = 48

// MaxTenantKey is the largest key a tenant may use (48 usable bits).
const MaxTenantKey = (uint64(1) << tenantShift) - 1

// ErrKeyRange reports a tenant-local key wider than 48 bits.
var ErrKeyRange = fmt.Errorf("kvstore: tenant key exceeds %d bits", tenantShift)

// PrefixedStore is one tenant's view of a root store: point reads and
// writes over the tenant's own key space, isolated from every other tenant
// by construction (no key arithmetic can escape the prefix).
type PrefixedStore struct {
	root *Store
	id   TenantID
}

// ID returns the tenant id backing this view.
func (p *PrefixedStore) ID() TenantID { return p.id }

// Global maps a tenant-local key to its root-store key.
func (p *PrefixedStore) Global(key uint64) (uint64, error) {
	if key > MaxTenantKey {
		return 0, ErrKeyRange
	}
	return uint64(p.id)<<tenantShift | key, nil
}

// Read returns the value for the tenant-local key.
func (p *PrefixedStore) Read(key uint64) ([]byte, bool, error) {
	g, err := p.Global(key)
	if err != nil {
		return nil, false, err
	}
	return p.root.Read(g)
}

// Insert stores a value under the tenant-local key.
func (p *PrefixedStore) Insert(key uint64, value []byte) error {
	g, err := p.Global(key)
	if err != nil {
		return err
	}
	return p.root.Insert(g, value)
}

// Update overwrites the tenant-local key's value (inserting when absent).
func (p *PrefixedStore) Update(key uint64, value []byte) error {
	g, err := p.Global(key)
	if err != nil {
		return err
	}
	return p.root.Update(g, value)
}

// Delete removes the tenant-local key.
func (p *PrefixedStore) Delete(key uint64) (bool, error) {
	g, err := p.Global(key)
	if err != nil {
		return false, err
	}
	return p.root.Delete(g)
}

// Tenants is the durable tenant registry of a root store. The name→id
// table is persisted as records in the reserved id-0 slice (record i holds
// the name of tenant i+1), so creation is a single crash-atomic insert and
// reopening a store recovers the exact tenant set.
type Tenants struct {
	root *Store

	mu     sync.Mutex
	byName map[string]TenantID
}

// registryID is the reserved tenant id holding the registry records.
const registryID TenantID = 0

// MaxTenants bounds the registry (ids 1..65535 fit in the 16-bit prefix).
const MaxTenants = 1<<16 - 1

// LoadTenants rebuilds the registry from the store's reserved slice, whose
// keys start at 0.
func LoadTenants(root *Store) (*Tenants, error) {
	t := &Tenants{root: root, byName: make(map[string]TenantID)}
	start := uint64(0)
	for {
		kvs, err := root.Scan(start, 1024)
		if err != nil {
			return nil, err
		}
		for _, kv := range kvs {
			if TenantID(kv.Key>>tenantShift) != registryID {
				return t, nil // walked past the registry's slice
			}
			t.byName[string(kv.Value)] = TenantID(kv.Key + 1)
		}
		if len(kvs) < 1024 {
			return t, nil
		}
		start = kvs[len(kvs)-1].Key + 1
	}
}

// Lookup returns the tenant's store view, or ok=false when unregistered.
func (t *Tenants) Lookup(name string) (*PrefixedStore, bool) {
	t.mu.Lock()
	id, ok := t.byName[name]
	t.mu.Unlock()
	if !ok {
		return nil, false
	}
	return &PrefixedStore{root: t.root, id: id}, true
}

// Ensure returns the tenant's store view, registering the name first if
// needed. Registration is one durable insert into the registry slice;
// after a crash anywhere around it, the tenant either exists with this id
// or does not exist — never a dangling id.
func (t *Tenants) Ensure(name string) (*PrefixedStore, error) {
	if name == "" {
		return nil, fmt.Errorf("kvstore: empty tenant name")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byName[name]; ok {
		return &PrefixedStore{root: t.root, id: id}, nil
	}
	if len(t.byName) >= MaxTenants {
		return nil, fmt.Errorf("kvstore: tenant table full (%d tenants)", MaxTenants)
	}
	id := TenantID(len(t.byName) + 1)
	reg := &PrefixedStore{root: t.root, id: registryID}
	if err := reg.Insert(uint64(id-1), []byte(name)); err != nil {
		return nil, err
	}
	t.byName[name] = id
	return &PrefixedStore{root: t.root, id: id}, nil
}
