// Package engine defines the transaction-engine contract shared by
// Kamino-Tx and the baseline atomicity mechanisms it is evaluated against
// (undo logging as in Intel NVML, copy-on-write, and an unsafe no-logging
// mode). The public kamino package selects an engine; persistent data
// structures and benchmarks are written once against these interfaces so
// every comparison in the paper runs identical application code on all
// mechanisms.
package engine

import (
	"errors"

	"kaminotx/internal/heap"
	"kaminotx/internal/obs"
	"kaminotx/internal/trace"
)

// Tx is one transaction. The API mirrors NVML's transactional object store
// (paper Table 2): write intents are declared per object, allocation and
// free are transactional, and all mutation goes through the Tx so each
// engine can route it (in place, to an undo-logged original, or to a CoW
// shadow).
//
// A Tx is not safe for concurrent use by multiple goroutines. After Commit
// or Abort returns, the Tx is spent.
type Tx interface {
	// ID returns the engine-assigned transaction id.
	ID() uint64

	// Add declares a write intent on obj (NVML TX_ADD): it acquires the
	// object's write lock, blocking while a prior dependent transaction
	// is unreconciled, and makes whatever per-engine record is needed
	// before obj may be modified.
	Add(obj heap.ObjID) error

	// Lock acquires obj's write lock without declaring a write intent:
	// nothing is logged or copied, Write refuses the object, and the
	// lock is released when the transaction ends, with its read locks. A
	// structure takes it on the one object that serializes its writers
	// and follows with Add only if that object turns out to change.
	Lock(obj heap.ObjID) error

	// Write stores data at byte offset off within obj's payload. The
	// object must be in the write set (Add, or allocated by this Tx).
	Write(obj heap.ObjID, off int, data []byte) error

	// Read returns a read-only view of obj's payload as this transaction
	// sees it (its own uncommitted writes included). Unless obj is in
	// the write set, a read lock is taken and held until the transaction
	// finishes, so dependent reads wait for pending objects.
	Read(obj heap.ObjID) ([]byte, error)

	// Alloc transactionally allocates a zeroed object of at least size
	// bytes (NVML TX_ZALLOC). The object is write-locked and rolled back
	// if the transaction aborts.
	Alloc(size int) (heap.ObjID, error)

	// Free transactionally deallocates obj (NVML TX_FREE). The free
	// takes effect at commit; an abort leaves obj untouched.
	Free(obj heap.ObjID) error

	// Commit makes the transaction's effects durable and atomic. When
	// Commit returns, the effects survive any crash.
	Commit() error

	// Abort discards the transaction's effects and restores every
	// modified object.
	Abort() error
}

// Engine manages a persistent heap with one atomicity mechanism.
type Engine interface {
	// Name identifies the mechanism ("kamino", "undo", "cow", "nolog").
	Name() string

	// Begin starts a transaction.
	Begin() (Tx, error)

	// Heap exposes the main persistent heap (for read-only navigation
	// outside transactions and for tools).
	Heap() *heap.Heap

	// Recover completes or rolls back transactions that were in flight
	// at the time of a crash. Must be called before Begin after
	// reattaching to existing regions; engines' Open constructors call
	// it internally.
	Recover() error

	// Drain blocks until all asynchronous post-commit work (Kamino's
	// backup sync) has completed. No-op for synchronous engines.
	Drain()

	// Close drains and shuts down the engine.
	Close() error

	// Stats returns cumulative counters.
	Stats() Stats

	// Obs returns the engine's observability registry: counters, NVM
	// gauges, and per-transaction phase latency histograms. The registry
	// is live — snapshot it to read a consistent view.
	Obs() *obs.Registry

	// SetTracer attaches (or detaches, with nil) a trace.Tracer that
	// receives transaction lifecycle events (begin, lock-acquire,
	// intent-append, in-place write, commit-marker, backup-sync,
	// abort/rollback). Safe to call while transactions are running;
	// with no tracer attached the hot path pays at most one atomic/nil
	// pointer check per would-be event.
	SetTracer(*trace.Tracer)
}

// Stats counts engine-level events. All counters are cumulative.
type Stats struct {
	Commits uint64
	Aborts  uint64

	// BytesCopiedCritical is data copied inside the critical path of
	// transactions (undo-log old values, CoW shadows and copy-backs,
	// Kamino-Tx-Dynamic backup misses). This is the quantity Kamino-Tx
	// exists to eliminate.
	BytesCopiedCritical uint64

	// BytesCopiedAsync is data copied off the critical path (Kamino's
	// post-commit backup sync).
	BytesCopiedAsync uint64

	// DependentWaits counts lock acquisitions that blocked on a prior
	// transaction's unreconciled write-set (dependent transactions).
	DependentWaits uint64

	// BackupMisses counts Kamino-Tx-Dynamic on-demand backup copies.
	BackupMisses uint64

	// BackupEvictions counts Kamino-Tx-Dynamic LRU evictions.
	BackupEvictions uint64
}

// Common engine errors.
var (
	ErrTxDone     = errors.New("engine: transaction already committed or aborted")
	ErrNotInTx    = errors.New("engine: object is not in the transaction's write set")
	ErrBackupFull = errors.New("engine: dynamic backup region cannot hold the working set")
)
