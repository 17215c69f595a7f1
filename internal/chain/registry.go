// Package chain implements chain replication for the kamino persistent
// heap: the traditional variant (every replica copies data in the critical
// path, as its undo-logging engine requires) and Kamino-Tx-Chain (paper
// §5), where f+2 replicas update in place, only the head keeps a backup,
// and the chain's neighbours serve as the copies that roll an incompletely
// rebooted replica forward or back.
package chain

import (
	"fmt"

	"kaminotx/kamino"
)

// WriteFunc is a replicated write operation. It must be deterministic
// (identical heap effects on every replica given identical prior state) and
// idempotent (re-execution after partial recovery must be harmless); the
// provided KV operations have both properties. It runs inside one
// transaction per replica; returning an error aborts at the head and the
// operation is never admitted to the chain.
type WriteFunc func(tx *kamino.Tx, pool *kamino.Pool, args []byte) error

// ReadFunc is a read-only operation, executed at the tail (chain
// replication serves reads from the tail for linearizability).
type ReadFunc func(pool *kamino.Pool, args []byte) ([]byte, error)

// LockKeysFunc maps an operation's arguments to the abstract lock keys the
// head uses for dependency admission control (paper §5.1: the head never
// admits dependent transactions concurrently), given the head's pool, whose
// structures decide which operations share objects. Conservative
// over-locking is safe; under-locking is not.
type LockKeysFunc func(pool *kamino.Pool, args []byte) []uint64

// Registry holds the replicated operations. Every replica of a chain must
// be built with an identical registry.
type Registry struct {
	writes   map[string]WriteFunc
	lockKeys map[string]LockKeysFunc
	reads    map[string]ReadFunc
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		writes:   make(map[string]WriteFunc),
		lockKeys: make(map[string]LockKeysFunc),
		reads:    make(map[string]ReadFunc),
	}
}

// RegisterWrite adds a write operation with its lock-key extractor.
func (r *Registry) RegisterWrite(name string, fn WriteFunc, keys LockKeysFunc) {
	if _, dup := r.writes[name]; dup {
		panic(fmt.Sprintf("chain: duplicate write op %q", name))
	}
	r.writes[name] = fn
	r.lockKeys[name] = keys
}

// RegisterRead adds a read-only operation.
func (r *Registry) RegisterRead(name string, fn ReadFunc) {
	if _, dup := r.reads[name]; dup {
		panic(fmt.Sprintf("chain: duplicate read op %q", name))
	}
	r.reads[name] = fn
}

func (r *Registry) write(name string) (WriteFunc, LockKeysFunc, error) {
	fn, ok := r.writes[name]
	if !ok {
		return nil, nil, fmt.Errorf("chain: unknown write op %q", name)
	}
	return fn, r.lockKeys[name], nil
}

func (r *Registry) read(name string) (ReadFunc, error) {
	fn, ok := r.reads[name]
	if !ok {
		return nil, fmt.Errorf("chain: unknown read op %q", name)
	}
	return fn, nil
}
