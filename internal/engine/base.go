package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/locktable"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
	"kaminotx/internal/trace"
)

// Regions names the NVM devices an engine runs on. Backup is set only for
// Kamino-Tx; Log is nil for a mechanism that keeps no log (nolog).
type Regions struct{ Main, Backup, Log *nvm.Region }

// Base is the engine skeleton: everything the atomicity mechanisms share.
// It owns the heap, the intent log, the lock table, the observability
// registry with the common counters and phases, the tracer, and the staged
// recovery of a reopen; BaseTx (tx.go) is the matching transaction skeleton.
// A mechanism embeds *Base in its Engine and BaseTx in its transaction and
// adds only what makes it a mechanism: what Add records, what Commit
// persists beyond the base, what Abort and Recover restore.
type Base struct {
	name  string
	heap  *heap.Heap
	log   *intentlog.Log // nil: no intents, no commit marker, nothing to replay
	locks *locktable.Table
	obs   *obs.Registry

	recov []StageReport // stage timings of the Reopen that built us

	// tr, when attached, receives transaction lifecycle trace events.
	// Atomic because background goroutines (Kamino's appliers) read it
	// concurrently with SetTracer; nil when tracing is off.
	tr atomic.Pointer[trace.Tracer]

	nextID atomic.Uint64 // transaction ids when there is no log to mint them

	states sync.Pool // *TxState, recycled between transactions (Recycle)

	commits  *obs.Counter
	aborts   *obs.Counter
	depWaits *obs.Counter

	phStall  *obs.PhaseStat // dependent-lock acquisition time
	phIntent *obs.PhaseStat // intent-log append persist (nil with no log)
	phHeap   *obs.PhaseStat // in-place heap flush+fence at commit
	phMarker *obs.PhaseStat // commit-marker persist (nil with no log)
}

// Format builds the skeleton of a fresh engine called name: it formats the
// heap in r.Main and, when r.Log is set, the intent log with cfg.
func Format(name string, r Regions, cfg intentlog.Config) (*Base, error) {
	h, err := heap.Format(r.Main)
	if err != nil {
		return nil, err
	}
	var l *intentlog.Log
	if r.Log != nil {
		if l, err = intentlog.Format(r.Log, cfg); err != nil {
			return nil, err
		}
	}
	return newBase(name, r, h, l), nil
}

// Attach builds the skeleton over existing images. Nothing is recovered
// yet: the caller wires its mechanism and then runs Reopen.
func Attach(name string, r Regions) (*Base, error) {
	h, err := heap.Attach(r.Main)
	if err != nil {
		return nil, err
	}
	var l *intentlog.Log
	if r.Log != nil {
		if l, err = intentlog.Attach(r.Log); err != nil {
			return nil, err
		}
	}
	return newBase(name, r, h, l), nil
}

// newBase wires the registry — the regions' device counters exported as
// gauges, the common counters and phase timers — so the hot path touches
// only cached pointers.
func newBase(name string, r Regions, h *heap.Heap, l *intentlog.Log) *Base {
	o := obs.New(name)
	r.Main.ExportObs(o, "nvm.main")
	if r.Backup != nil {
		r.Backup.ExportObs(o, "nvm.backup")
	}
	if r.Log != nil {
		r.Log.ExportObs(o, "nvm.log")
	}
	b := &Base{
		name: name, heap: h, log: l, locks: locktable.New(), obs: o,
		states: sync.Pool{New: func() any {
			return &TxState{ws: make(map[heap.ObjID]WriteEntry)}
		}},
		commits:  o.Counter("commits"),
		aborts:   o.Counter("aborts"),
		depWaits: o.Counter("dependent_waits"),
		phStall:  o.Phase(obs.PhaseDependentStall),
		phHeap:   o.Phase(obs.PhaseHeapPersist),
	}
	if l != nil { // no log, no intent or marker to persist
		b.phIntent, b.phMarker = o.Phase(obs.PhaseIntentPersist), o.Phase(obs.PhaseCommitPersist)
	}
	return b
}

// StageReport records one completed recovery stage of a Reopen.
type StageReport struct {
	Stage    obs.Phase
	Duration time.Duration
}

// Reopen runs the staged recovery of an attached engine. Each stage is
// timed into its phase's histogram in the registry (index_attach,
// log_replay, rescan) and into the RecoveryReport, and the
// recovery_progress gauge reads 0..100 as stages complete — it stays at
// its last value, so a restarted process that is fully up reads 100. The
// first error stops the run. Stage order is forced by data dependencies —
// a mechanism's lookup state (attach; Kamino's backup index, nil
// otherwise) must exist before log replay (replay: the mechanism's
// Recover, nil with no log) can roll transactions forward or back, and
// replay may rewrite block headers the free-list rescan reads — so what
// parallelism there is lives inside a stage (concurrent intent-log slot
// groups), not between stages.
func (b *Base) Reopen(attach, replay func() error) error {
	stages := []struct {
		phase obs.Phase
		run   func() error
	}{
		{obs.PhaseRecoveryIndexAttach, attach},
		{obs.PhaseRecoveryLogReplay, replay},
		{obs.PhaseRecoveryRescan, b.heap.Rescan},
	}
	total := uint64(0)
	for _, st := range stages {
		if st.run != nil {
			total++
		}
	}
	var done atomic.Uint64
	b.obs.Gauge("recovery_progress", func() uint64 { return done.Load() * 100 / total })
	for _, st := range stages {
		if st.run == nil {
			continue
		}
		start := time.Now()
		err := st.run()
		d := time.Since(start)
		b.obs.Phase(st.phase).Observe(d)
		b.recov = append(b.recov, StageReport{Stage: st.phase, Duration: d})
		if err != nil {
			return err
		}
		done.Add(1)
	}
	return nil
}

// RecoveryReport returns the stage timings of the Reopen that produced this
// engine (nil for a freshly formatted engine).
func (b *Base) RecoveryReport() []StageReport { return b.recov }

// Name implements Engine.
func (b *Base) Name() string { return b.name }

// Heap implements Engine.
func (b *Base) Heap() *heap.Heap { return b.heap }

// Obs implements Engine.
func (b *Base) Obs() *obs.Registry { return b.obs }

// Log returns the intent log (nil for a mechanism that keeps none).
func (b *Base) Log() *intentlog.Log { return b.log }

// Locks returns the object lock table.
func (b *Base) Locks() *locktable.Table { return b.locks }

// Drain implements Engine for mechanisms whose commit is synchronous.
func (b *Base) Drain() {}

// Close implements Engine for mechanisms with nothing to shut down.
func (b *Base) Close() error { return nil }

// SetTracer implements Engine: attaches (or detaches, with nil) a
// lifecycle-event tracer. Safe to call while transactions run.
func (b *Base) SetTracer(t *trace.Tracer) {
	if t != nil && !t.Enabled() {
		t = nil
	}
	b.tr.Store(t)
}

// Tracer returns the attached tracer, nil when tracing is off (a nil
// *trace.Tracer accepts every event and drops it).
func (b *Base) Tracer() *trace.Tracer { return b.tr.Load() }

// Stats implements Engine: the cumulative counters, read by name from the
// registry — the one place engine events are counted. A counter the
// mechanism never registered reads zero.
func (b *Base) Stats() Stats {
	c := b.obs.Snapshot().Counters
	return Stats{
		Commits:             c["commits"],
		Aborts:              c["aborts"],
		BytesCopiedCritical: c["bytes_copied_critical"],
		BytesCopiedAsync:    c["bytes_copied_async"],
		DependentWaits:      c["dependent_waits"],
		BackupMisses:        c["backup_misses"],
		BackupEvictions:     c["backup_evictions"],
	}
}

// RedoFrees re-applies the deferred frees of a committed transaction found
// by recovery; ApplyFree is idempotent.
func (b *Base) RedoFrees(entries []intentlog.Entry) error {
	for _, ent := range entries {
		if ent.Op == intentlog.OpFree {
			if err := b.heap.ApplyFree(heap.ObjID(ent.Obj)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Rollback undoes a transaction's logged intents newest-first, so an
// alloc-then-write sequence unwinds cleanly — for an abort (traced under
// txid) and for recovery of an incomplete transaction (nil tracer). An
// allocation is unwound here and a deferred free never happened; restore
// puts back the pre-transaction image of a write intent's object, and is
// nil for a mechanism that never touched the original. Whole-object
// restores make a repeated rollback idempotent.
func (b *Base) Rollback(tr *trace.Tracer, txid uint64, entries []intentlog.Entry, restore func(intentlog.Entry) error) error {
	for i := len(entries) - 1; i >= 0; i-- {
		ent := entries[i]
		switch {
		case ent.Op == intentlog.OpWrite && restore != nil:
			if err := restore(ent); err != nil {
				return err
			}
			tr.Rollback(txid, ent.Obj)
		case ent.Op == intentlog.OpAlloc:
			if err := b.heap.RollbackAlloc(heap.ObjID(ent.Obj), int(ent.Class)); err != nil {
				return err
			}
			tr.Rollback(txid, ent.Obj)
		}
	}
	return nil
}
