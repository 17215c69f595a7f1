// Package kamino implements the paper's contribution: atomic in-place
// transactional updates with no data copying in the critical path.
//
// Transactions edit the main heap in place after durably recording only the
// addresses of the objects they will touch (the intent log). A second copy
// of the data — the backup — is brought up to date asynchronously after
// commit by the applier; aborts and crash recovery restore the main heap
// from it. Object write locks are held from the write-intent declaration
// until the backup has absorbed the committed values, so a dependent
// transaction (read- or write-set intersecting a prior write-set) blocks
// exactly until main and backup agree on the pending objects — the paper's
// Safety 1 and Safety 2.
//
// With a full-size backup region this is Kamino-Tx-Simple; with a smaller
// one (α < 1) the dynamic backend keeps copies of only the hottest objects
// and the engine is Kamino-Tx-Dynamic.
package kamino

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kaminotx/internal/engine"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/locktable"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
	"kaminotx/internal/recovery"
	"kaminotx/internal/trace"
)

// Config tunes the engine.
type Config struct {
	// Log sizes the intent log. Zero values take intentlog.DefaultConfig
	// with DataBytesPerSlot forced to 0 — Kamino-Tx never logs data.
	Log intentlog.Config

	// ApplierWorkers is the number of background backup-sync goroutines,
	// each with its own queue; a committed transaction is routed to a
	// worker by its first object's shard, so per-object copy-back order
	// is preserved (and any routing is safe: a tx's locks are held until
	// its sync completes, so two queued txs never share an object).
	// Defaults to GOMAXPROCS/2, minimum 1.
	ApplierWorkers int

	// Shards tunes the concurrency sharding of the layers under the
	// engine: lock-table buckets, heap allocator shards, and intent-log
	// free-slot shards. Zero selects each layer's default; persistent
	// formats are shard-oblivious, so any value can reopen any image.
	Shards int

	// GroupCommit routes commit-marker persists through a dedicated
	// committer goroutine that absorbs concurrent transactions' markers
	// into one flush+fence epoch. Commit latency gains a hand-off, so it
	// pays off only when commits are frequent enough to share fences;
	// abort and crash-recovery semantics are unchanged (each slot's state
	// word remains that transaction's independent commit point).
	GroupCommit bool

	// BackupIndex, when non-nil on Open, offers a checkpointed
	// dynamic-backend lookup table (encoded by EncodeBackupIndex). It is
	// used only if the engine is dynamic and the main heap's image epoch
	// still equals Epoch — otherwise transactions ran after the snapshot
	// and the full rebuild scan runs instead. A snapshot that fails
	// validation also falls back; it can slow recovery down, never
	// corrupt it.
	BackupIndex *BackupIndexSnapshot
}

// BackupIndexSnapshot is a checkpointed dynamic-backend lookup table plus
// the image epoch it was taken at.
type BackupIndexSnapshot struct {
	Epoch uint64
	Data  []byte
}

func (c Config) withDefaults() Config {
	if c.Log.Slots == 0 {
		c.Log = intentlog.Config{
			Slots:            intentlog.DefaultConfig.Slots,
			EntriesPerSlot:   intentlog.DefaultConfig.EntriesPerSlot,
			DataBytesPerSlot: 0,
		}
	}
	if c.ApplierWorkers <= 0 {
		c.ApplierWorkers = runtime.GOMAXPROCS(0) / 2
		if c.ApplierWorkers < 1 {
			c.ApplierWorkers = 1
		}
	}
	return c
}

// Engine is the Kamino-Tx transaction engine (the paper's Transaction
// Coordinator plus Log Manager plus backup maintenance).
type Engine struct {
	heap    *heap.Heap
	log     *intentlog.Log
	locks   *locktable.Table
	backend backend
	dynamic bool
	obs     *obs.Registry

	applyChs []chan applyReq // one queue per applier worker
	commitCh chan commitReq  // nil unless Config.GroupCommit
	wg       sync.WaitGroup  // applier + committer goroutines
	inFlt    sync.WaitGroup  // outstanding post-commit syncs
	pending  atomic.Int64    // committed txs whose backup sync hasn't finished
	polling  atomic.Int32    // this engine's goroutines polling now (see pollers)
	closed   atomic.Bool

	applyErr atomic.Value // error

	// tr, when attached, receives transaction lifecycle trace events.
	// Atomic because the applier goroutines read it concurrently with
	// SetTracer; nil when tracing is off (one atomic load per event).
	tr atomic.Pointer[trace.Tracer]

	recov []recovery.StageReport // stage timings of the Open that built us

	commits    *obs.Counter
	aborts     *obs.Counter
	depWaits   *obs.Counter
	grpEpochs  *obs.Counter // group-commit fence epochs issued
	grpCommits *obs.Counter // transactions committed through group commit
	parks      *obs.Counter // times an applier or the committer parked on its queue

	phStall   *obs.PhaseStat // dependent-lock acquisition time
	phIntent  *obs.PhaseStat // intent-log append persist
	phHeap    *obs.PhaseStat // in-place heap flush+fence at commit
	phMarker  *obs.PhaseStat // commit-marker persist
	phGrpWait *obs.PhaseStat // commit-marker wait under group commit
	phSync    *obs.PhaseStat // applier backup roll-forward work
	phLag     *obs.PhaseStat // commit → locks-released lag
}

type applyReq struct {
	tl          *intentlog.TxLog
	owner       locktable.Owner
	objs        []lockedObj
	committedAt time.Time
}

// commitReq hands a transaction's commit marker to the group committer;
// done reports when (and whether) the shared fence epoch covered it.
type commitReq struct {
	tl   *intentlog.TxLog
	done chan error
}

type lockedObj struct {
	obj   heap.ObjID
	dirty engine.Extent // what the transaction changed: all the applier copies
}

// New formats fresh regions and returns a running engine. If backupReg is
// at least as large as mainReg the engine runs Kamino-Tx-Simple; otherwise
// the backup region is formatted as a dynamic partial backup
// (Kamino-Tx-Dynamic) and its usable fraction of the main heap is the
// paper's α.
func New(mainReg, backupReg, logReg *nvm.Region, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	h, err := heap.Format(mainReg)
	if err != nil {
		return nil, err
	}
	l, err := intentlog.Format(logReg, cfg.Log)
	if err != nil {
		return nil, err
	}
	h.SetShards(cfg.Shards)
	l.SetShards(cfg.Shards)
	locks := locktable.NewSharded(cfg.Shards)
	dynamic := backupReg.Size() < mainReg.Size()
	o := newRegistry(dynamic, mainReg, backupReg, logReg)
	var be backend
	if dynamic {
		bh, err := heap.Format(backupReg)
		if err != nil {
			return nil, err
		}
		be = newDynamicBackend(mainReg, bh, locks, o)
	} else {
		be, err = newSimpleBackend(mainReg, backupReg, o)
		if err != nil {
			return nil, err
		}
	}
	e := newEngine(h, l, locks, be, dynamic, o)
	e.start(cfg)
	return e, nil
}

// Open attaches to existing regions, runs crash recovery (rolling committed
// transactions forward into the backup and incomplete ones back from it),
// and returns a running engine.
//
// Recovery runs as a staged pipeline (internal/recovery), surfaced in the
// engine's registry as the index_attach / log_replay / rescan phase spans
// and the recovery_progress gauge. Stage order is forced by data
// dependencies — the backup's lookup state must exist before log replay
// can roll transactions forward or back, and replay may rewrite block
// headers the free-list rescan reads — so parallelism lives inside the
// stages: the backup index restores from a checkpoint when Config's
// snapshot is still epoch-valid, log replay reconciles slot groups
// concurrently, and the heap rescans in parallel at the segment
// directory's cut points.
func Open(mainReg, backupReg, logReg *nvm.Region, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	h, err := heap.Attach(mainReg)
	if err != nil {
		return nil, err
	}
	l, err := intentlog.Attach(logReg)
	if err != nil {
		return nil, err
	}
	h.SetShards(cfg.Shards)
	l.SetShards(cfg.Shards)
	locks := locktable.NewSharded(cfg.Shards)
	dynamic := backupReg.Size() < mainReg.Size()
	o := newRegistry(dynamic, mainReg, backupReg, logReg)
	pipe := recovery.New(o, 3)

	var be backend
	err = pipe.Run(obs.PhaseRecoveryIndexAttach, func() error {
		if !dynamic {
			var err error
			be, err = newSimpleBackend(mainReg, backupReg, o)
			return err
		}
		bh, err := heap.Attach(backupReg)
		if err != nil {
			return err
		}
		if err := bh.Rescan(); err != nil {
			return err
		}
		db := newDynamicBackend(mainReg, bh, locks, o)
		if snap := cfg.BackupIndex; snap != nil && snap.Epoch == h.Epoch() {
			if err := db.restoreSnapshot(snap.Data); err == nil {
				o.Counter("recovery_index_warm").Inc()
				be = db
				return nil
			}
			// An invalid snapshot downgrades to the scan, never fails
			// the open.
		}
		o.Counter("recovery_index_cold").Inc()
		if err := db.rebuild(); err != nil {
			return err
		}
		be = db
		return nil
	})
	if err != nil {
		return nil, err
	}

	e := newEngine(h, l, locks, be, dynamic, o)
	if err := pipe.Run(obs.PhaseRecoveryLogReplay, e.Recover); err != nil {
		return nil, err
	}
	if err := pipe.Run(obs.PhaseRecoveryRescan, h.Rescan); err != nil {
		return nil, err
	}
	e.recov = pipe.Report()
	e.start(cfg)
	return e, nil
}

// RecoveryReport returns the stage timings of the Open that produced this
// engine (nil for a freshly formatted engine).
func (e *Engine) RecoveryReport() []recovery.StageReport { return e.recov }

// EncodeBackupIndex serializes the dynamic backend's lookup table for the
// pool's index checkpoint; ok is false for the simple (full-mirror)
// backend, which keeps no volatile lookup state. Callers must quiesce
// transactions (Drain) first and stamp the result with the heap's current
// epoch.
func (e *Engine) EncodeBackupIndex() (data []byte, ok bool) {
	db, isDyn := e.backend.(*dynamicBackend)
	if !isDyn {
		return nil, false
	}
	return db.encodeSnapshot(), true
}

// newRegistry builds the engine's observability registry with the NVM
// regions' device counters exported as gauges.
func newRegistry(dynamic bool, mainReg, backupReg, logReg *nvm.Region) *obs.Registry {
	name := "kamino"
	if dynamic {
		name = "kamino-dynamic"
	}
	o := obs.New(name)
	mainReg.ExportObs(o, "nvm.main")
	backupReg.ExportObs(o, "nvm.backup")
	logReg.ExportObs(o, "nvm.log")
	return o
}

// newEngine wires the registry-backed counters and phase timers; the hot
// path touches only the cached pointers.
func newEngine(h *heap.Heap, l *intentlog.Log, locks *locktable.Table, be backend, dynamic bool, o *obs.Registry) *Engine {
	return &Engine{
		heap: h, log: l, locks: locks, backend: be, dynamic: dynamic, obs: o,
		commits:    o.Counter("commits"),
		aborts:     o.Counter("aborts"),
		depWaits:   o.Counter("dependent_waits"),
		grpEpochs:  o.Counter("group_commit_epochs"),
		grpCommits: o.Counter("group_committed_txs"),
		parks:      o.Counter("applier_parks"),
		phStall:    o.Phase(obs.PhaseDependentStall),
		phIntent:   o.Phase(obs.PhaseIntentPersist),
		phHeap:     o.Phase(obs.PhaseHeapPersist),
		phMarker:   o.Phase(obs.PhaseCommitPersist),
		phGrpWait:  o.Phase(obs.PhaseGroupCommitWait),
		phSync:     o.Phase(obs.PhaseBackupSync),
		phLag:      o.Phase(obs.PhaseBackupLag),
	}
}

func (e *Engine) start(cfg Config) {
	e.applyChs = make([]chan applyReq, cfg.ApplierWorkers)
	for i := range e.applyChs {
		e.applyChs[i] = make(chan applyReq, e.log.Config().Slots)
	}
	// Live lag gauges: how much committed work the backup appliers still
	// owe. queue_depth counts requests parked across all worker queues
	// (with a per-worker breakdown when there is more than one);
	// pending_txs additionally includes the ones workers are currently
	// rolling forward.
	e.obs.Gauge("backup_queue_depth", func() uint64 {
		var n uint64
		for _, ch := range e.applyChs {
			n += uint64(len(ch))
		}
		return n
	})
	if len(e.applyChs) > 1 {
		for i := range e.applyChs {
			ch := e.applyChs[i]
			e.obs.Gauge(fmt.Sprintf("backup_queue_depth.%d", i), func() uint64 {
				return uint64(len(ch))
			})
		}
	}
	e.obs.Gauge("backup_pending_txs", func() uint64 {
		if n := e.pending.Load(); n > 0 {
			return uint64(n)
		}
		return 0
	})
	e.obs.Gauge("engine_pollers", func() uint64 { return uint64(e.polling.Load()) })
	for i := 0; i < cfg.ApplierWorkers; i++ {
		e.wg.Add(1)
		go e.applier(e.applyChs[i])
	}
	if cfg.GroupCommit {
		e.commitCh = make(chan commitReq, e.log.Config().Slots)
		e.wg.Add(1)
		go e.committer()
	}
}

// committer is the group-commit thread: it gathers whatever commit markers
// are pending, persists them under one flush+fence epoch via SetStateBatch,
// and wakes every covered transaction. Like the applier it receives through
// recvPolling, because a parked-goroutine wakeup would be charged to every
// commit's critical path.
func (e *Engine) committer() {
	defer e.wg.Done()
	pending := make([]commitReq, 0, 64)
	tls := make([]*intentlog.TxLog, 0, 64)
	for {
		req, ok := recvPolling(e, e.commitCh)
		if !ok {
			return
		}
		pending = append(pending[:0], req)
		// Absorb everything already waiting, up to a full batch.
	drain:
		for len(pending) < cap(pending) {
			select {
			case more, ok := <-e.commitCh:
				if !ok {
					break drain
				}
				pending = append(pending, more)
			default:
				break drain
			}
		}
		tls = tls[:0]
		for _, p := range pending {
			tls = append(tls, p.tl)
		}
		err := e.log.SetStateBatch(tls, intentlog.StateCommitted)
		e.grpEpochs.Add(1)
		e.grpCommits.Add(uint64(len(pending)))
		for _, p := range pending {
			p.done <- err
		}
	}
}

// applier is the paper's background Transaction Coordinator thread: it
// rolls the backup forward for committed transactions and only then
// releases the transaction's locks and intent-log slot.
//
// The receive polls briefly before parking when the process-wide budget
// allows (recvPolling): a parked goroutine costs microseconds to wake, which
// would be charged to every dependent transaction's critical path — on real
// hardware the backup writer is a polling thread for exactly this reason.
func (e *Engine) applier(ch chan applyReq) {
	defer e.wg.Done()
	for {
		req, ok := recvPolling(e, ch)
		if !ok {
			return
		}
		if err := e.applyOne(req); err != nil {
			e.applyErr.CompareAndSwap(nil, err)
		}
		e.pending.Add(-1)
		e.inFlt.Done()
	}
}

// pollSpins is how many times a polling goroutine yields and looks again
// before it gives up and parks on its channel.
const pollSpins = 2000

// pollers counts the engine goroutines (appliers and group committers of
// every engine in the process) that are polling right now; pollersHigh is
// its high-water mark. At most GOMAXPROCS-1 may poll at a time, and with one
// processor none does.
//
// A poller waits by runtime.Gosched, which re-enters the global run queue,
// and the scheduler drains that queue before it looks at the network poller
// or lets a processor go idle. So a processor held by a poller never notices
// a ready socket, and with a poller on every processor a served request
// waits until somebody's spins run out. One processor fewer than there are
// keeps the benefit — a commit finds its applier awake, and the process is
// kept out of the futex sleep a closed loop would otherwise pay on every
// hand-off — and leaves one processor to the goroutines doing the work
// (DESIGN.md §10.1).
var pollers, pollersHigh atomic.Int32

// acquirePoll takes a slot of the polling budget if one is free.
func acquirePoll() bool {
	budget := int32(runtime.GOMAXPROCS(0) - 1)
	for {
		n := pollers.Load()
		if n >= budget {
			return false
		}
		if pollers.CompareAndSwap(n, n+1) {
			for {
				hw := pollersHigh.Load()
				if n+1 <= hw || pollersHigh.CompareAndSwap(hw, n+1) {
					return true
				}
			}
		}
	}
}

// recvPolling receives from ch for one of e's background goroutines. If
// nothing is queued and the budget has a slot it polls for pollSpins yields
// before parking; over budget it parks at once.
func recvPolling[T any](e *Engine, ch <-chan T) (v T, ok bool) {
	select {
	case v, ok = <-ch:
		return v, ok
	default:
	}
	if acquirePoll() {
		e.polling.Add(1)
		got := false
		for i := 0; i < pollSpins && !got; i++ {
			runtime.Gosched()
			select {
			case v, ok = <-ch:
				got = true
			default:
			}
		}
		e.polling.Add(-1)
		pollers.Add(-1)
		if got {
			return v, ok
		}
	}
	e.parks.Inc()
	v, ok = <-ch
	return v, ok
}

// routeApply picks the worker queue for a committed transaction: the shard
// of its smallest object id (map iteration order is random, so the minimum
// makes routing deterministic per write-set). Any choice is correct — the
// tx's write locks are held until applyOne finishes, so no two queued
// requests share an object — but shard-stable routing keeps a hot object's
// copy-backs on one worker.
func (e *Engine) routeApply(objs []lockedObj) chan applyReq {
	if len(e.applyChs) == 1 || len(objs) == 0 {
		return e.applyChs[0]
	}
	min := objs[0].obj
	for _, lo := range objs[1:] {
		if lo.obj < min {
			min = lo.obj
		}
	}
	h := uint64(min) * 0x9e3779b97f4a7c15 >> 32
	return e.applyChs[h%uint64(len(e.applyChs))]
}

func (e *Engine) applyOne(req applyReq) error {
	tr := e.trc()
	txid := req.tl.TxID()
	start := time.Now()
	for _, lo := range req.objs {
		if err := e.backend.syncToBackup(lo.obj, lo.dirty); err != nil {
			return err
		}
		tr.BackupSync(txid, uint64(lo.obj))
	}
	if err := req.tl.Release(); err != nil {
		return err
	}
	d := time.Since(start)
	e.phSync.Observe(d)
	tr.Span(string(obs.PhaseBackupSync), txid, d)
	// Backup now matches main for the whole write-set: dependent
	// transactions may proceed.
	for _, lo := range req.objs {
		e.locks.Unlock(uint64(lo.obj), req.owner)
	}
	// The lag from commit to here is the window a dependent transaction
	// on this write-set would have stalled.
	lag := time.Since(req.committedAt)
	e.phLag.Observe(lag)
	tr.Span(string(obs.PhaseBackupLag), txid, lag)
	return nil
}

// Name implements engine.Engine.
func (e *Engine) Name() string {
	if e.dynamic {
		return "kamino-dynamic"
	}
	return "kamino"
}

// Heap implements engine.Engine.
func (e *Engine) Heap() *heap.Heap { return e.heap }

// Obs implements engine.Engine.
func (e *Engine) Obs() *obs.Registry { return e.obs }

// SetTracer implements engine.Engine: attaches (or detaches, with nil)
// a lifecycle-event tracer. Safe to call while transactions run.
func (e *Engine) SetTracer(t *trace.Tracer) {
	if t != nil && !t.Enabled() {
		t = nil
	}
	e.tr.Store(t)
}

func (e *Engine) trc() *trace.Tracer { return e.tr.Load() }

// timedAppend persists one intent-log entry and charges it to the
// intent-persist phase.
func (e *Engine) timedAppend(tl *intentlog.TxLog, ent intentlog.Entry) error {
	start := time.Now()
	err := tl.Append(ent)
	d := time.Since(start)
	e.phIntent.Observe(d)
	if t := e.trc(); t != nil && err == nil {
		off, n := tl.EntryRange(tl.Len() - 1)
		t.IntentAppend(tl.TxID(), ent.Obj, off, n, ent.Op.String())
		t.Span(string(obs.PhaseIntentPersist), tl.TxID(), d)
	}
	return err
}

// Drain implements engine.Engine: blocks until every committed
// transaction's backup sync has completed.
func (e *Engine) Drain() { e.inFlt.Wait() }

// Close implements engine.Engine.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.inFlt.Wait()
	for _, ch := range e.applyChs {
		close(ch)
	}
	if e.commitCh != nil {
		close(e.commitCh)
	}
	e.wg.Wait()
	return e.err()
}

func (e *Engine) err() error {
	if v := e.applyErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Stats implements engine.Engine.
func (e *Engine) Stats() engine.Stats {
	s := engine.Stats{
		Commits:          e.commits.Load(),
		Aborts:           e.aborts.Load(),
		BytesCopiedAsync: e.backend.bytesSynced(),
		DependentWaits:   e.depWaits.Load(),
	}
	if db, ok := e.backend.(*dynamicBackend); ok {
		s.BackupMisses = db.misses.Load()
		s.BackupEvictions = db.evictions.Load()
		// A dynamic backup miss copies one block in the critical path.
		s.BytesCopiedCritical = db.missBytes.Load()
	}
	return s
}

// Recover implements the paper's recovery procedure: committed transactions
// are rolled forward into the backup (after re-applying their deferred
// frees); running or aborted transactions are rolled back from the backup.
// Incomplete transactions are treated the same as aborted ones.
//
// Slots are reconciled concurrently (one goroutine per slot group): the
// engine's locking guarantees unreconciled transactions never overlap on
// an object, the backends' copies take sharded or single mutexes, and the
// strict NVM region stripes its line locks — so per-slot work is
// independent.
func (e *Engine) Recover() error {
	return e.log.RecoverParallel(runtime.GOMAXPROCS(0), func(v intentlog.SlotView) error {
		switch v.State {
		case intentlog.StateCommitted:
			for _, ent := range v.Entries {
				if ent.Op == intentlog.OpFree {
					if err := e.heap.ApplyFree(heap.ObjID(ent.Obj)); err != nil {
						return err
					}
				}
			}
			for _, ent := range v.Entries {
				if err := e.backend.syncToBackup(heap.ObjID(ent.Obj), engine.WholeBlock(int(ent.Class))); err != nil {
					return err
				}
			}
		case intentlog.StateRunning, intentlog.StateAborted:
			for i := len(v.Entries) - 1; i >= 0; i-- {
				ent := v.Entries[i]
				switch ent.Op {
				case intentlog.OpWrite:
					if err := e.backend.restoreFromBackup(heap.ObjID(ent.Obj), int(ent.Class)); err != nil {
						return err
					}
				case intentlog.OpAlloc:
					if err := e.heap.RollbackAlloc(heap.ObjID(ent.Obj), int(ent.Class)); err != nil {
						return err
					}
				case intentlog.OpFree:
					// Deferred free never happened.
				}
			}
		}
		return v.Free()
	})
}

// Begin implements engine.Engine.
func (e *Engine) Begin() (engine.Tx, error) {
	if err := e.err(); err != nil {
		return nil, fmt.Errorf("kamino: engine failed: %w", err)
	}
	if err := e.heap.TouchEpoch(); err != nil {
		return nil, err
	}
	tl, err := e.log.Begin()
	if err != nil {
		return nil, err
	}
	return &tx{e: e, tl: tl, writeSet: make(map[heap.ObjID]wsEntry)}, nil
}

// wsEntry tracks one write-set member. writable is false for objects that
// were only Free'd: they are locked and logged, but in-place writes require
// a prior Add (which installs the backup copy aborts restore from). dirty
// is the part of the block this transaction changed: grown by Write, the
// whole block for allocated and freed objects (whose header changes too).
// Commit flushes, and the applier copies to the backup, only that extent.
type wsEntry struct {
	class    int
	writable bool
	dirty    engine.Extent
}

type tx struct {
	e        *Engine
	tl       *intentlog.TxLog
	done     bool
	began    bool // TxBegin emitted (first write intent)
	writeSet map[heap.ObjID]wsEntry
	reads    []heap.ObjID
	frees    []heap.ObjID
}

func (t *tx) ID() uint64             { return t.tl.TxID() }
func (t *tx) owner() locktable.Owner { return locktable.Owner(t.tl.TxID()) }

// traceBegin emits the transaction's TxBegin marker ahead of its first
// traced lifecycle event. Deferring it off Begin keeps read-only
// transactions out of the trace entirely: they touch no NVM (the intent
// slot header is lazily initialized too), hold no pending state, and no
// auditor rule consumes a transaction without a write intent — so their
// events would be pure recording cost at audit-overhead time.
func (t *tx) traceBegin(tr *trace.Tracer) {
	if !t.began {
		t.began = true
		tr.TxBegin(t.ID())
	}
}

// lockObj acquires obj's write lock, attributing any blocking on a prior
// transaction's unreconciled write-set to the dependent-stall phase.
func (t *tx) lockObj(obj heap.ObjID) {
	if t.e.locks.TryLock(uint64(obj), t.owner()) {
		if tr := t.e.trc(); tr != nil {
			t.traceBegin(tr)
			tr.LockAcquire(t.ID(), uint64(obj))
		}
		return
	}
	t.e.depWaits.Add(1)
	start := time.Now()
	t.e.locks.Lock(uint64(obj), t.owner())
	d := time.Since(start)
	t.e.phStall.Observe(d)
	if tr := t.e.trc(); tr != nil {
		t.traceBegin(tr)
		tr.LockAcquire(t.ID(), uint64(obj))
		tr.Span(string(obs.PhaseDependentStall), t.ID(), d)
	}
}

// Add declares the write intent: lock (blocking on pending objects), make
// sure a consistent backup copy exists, and durably log the object address.
// No data is copied (the dynamic backend copies only on a backup miss).
func (t *tx) Add(obj heap.ObjID) error {
	if t.done {
		return engine.ErrTxDone
	}
	if ws, ok := t.writeSet[obj]; ok {
		if ws.writable {
			return nil
		}
		// Already locked by a Free; upgrade to writable by installing
		// the backup copy and the write intent.
		copied, err := t.e.backend.ensure(obj, ws.class)
		if err != nil {
			return err
		}
		if copied {
			t.e.trc().BackupSync(t.ID(), uint64(obj))
		}
		if err := t.e.timedAppend(t.tl, intentlog.Entry{
			Op:    intentlog.OpWrite,
			Class: uint32(ws.class),
			Obj:   uint64(obj),
		}); err != nil {
			return err
		}
		ws.writable = true
		t.writeSet[obj] = ws
		return nil
	}
	t.lockObj(obj)
	// Header reads only under the object lock: a committed Free rewrites
	// the header (free-list link) while its lock is still held.
	cls, err := t.e.heap.ClassOf(obj)
	if err != nil {
		t.e.locks.Unlock(uint64(obj), t.owner())
		return err
	}
	// Backup-exists-before-modify (paper §3): holding the lock, the
	// backup copy of obj is in sync; for the dynamic backend this may
	// create it on demand.
	copied, err := t.e.backend.ensure(obj, cls)
	if err != nil {
		t.e.locks.Unlock(uint64(obj), t.owner())
		return err
	}
	if copied {
		t.e.trc().BackupSync(t.ID(), uint64(obj))
	}
	if err := t.e.timedAppend(t.tl, intentlog.Entry{
		Op:    intentlog.OpWrite,
		Class: uint32(cls),
		Obj:   uint64(obj),
	}); err != nil {
		t.e.locks.Unlock(uint64(obj), t.owner())
		return err
	}
	t.writeSet[obj] = wsEntry{class: cls, writable: true}
	return nil
}

func (t *tx) Write(obj heap.ObjID, off int, data []byte) error {
	if t.done {
		return engine.ErrTxDone
	}
	ws, ok := t.writeSet[obj]
	if !ok || !ws.writable {
		return fmt.Errorf("%w: %d", engine.ErrNotInTx, obj)
	}
	if err := t.e.heap.Write(obj, off, data); err != nil {
		return err
	}
	ws.dirty.Grow(off, len(data))
	t.writeSet[obj] = ws
	t.e.trc().InPlaceWrite(t.ID(), uint64(obj), int(obj)+off, len(data))
	return nil
}

func (t *tx) Read(obj heap.ObjID) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	if _, ok := t.writeSet[obj]; !ok {
		t.e.locks.RLock(uint64(obj), t.owner())
		t.reads = append(t.reads, obj)
	}
	return t.e.heap.Bytes(obj)
}

func (t *tx) Alloc(size int) (heap.ObjID, error) {
	if t.done {
		return heap.Nil, engine.ErrTxDone
	}
	obj, err := t.e.heap.Reserve(size)
	if err != nil {
		return heap.Nil, err
	}
	cls, err := t.e.heap.ClassOf(obj)
	if err != nil {
		return heap.Nil, err
	}
	t.e.locks.Lock(uint64(obj), t.owner())
	if tr := t.e.trc(); tr != nil {
		t.traceBegin(tr)
		tr.LockAcquire(t.ID(), uint64(obj))
	}
	if err := t.e.timedAppend(t.tl, intentlog.Entry{
		Op:    intentlog.OpAlloc,
		Class: uint32(cls),
		Obj:   uint64(obj),
	}); err != nil {
		t.e.locks.Unlock(uint64(obj), t.owner())
		relErr := t.e.heap.ReleaseReservation(obj)
		if relErr != nil {
			return heap.Nil, fmt.Errorf("%w (and release failed: %v)", err, relErr)
		}
		return heap.Nil, err
	}
	if err := t.e.heap.CommitAlloc(obj); err != nil {
		return heap.Nil, err
	}
	t.writeSet[obj] = wsEntry{class: cls, writable: true, dirty: engine.WholeBlock(cls)}
	return obj, nil
}

func (t *tx) Free(obj heap.ObjID) error {
	if t.done {
		return engine.ErrTxDone
	}
	// Lock and record intent; the free itself is deferred to commit, so
	// an abort has nothing to undo and no backup copy is required.
	if ws, ok := t.writeSet[obj]; ok {
		if err := t.e.timedAppend(t.tl, intentlog.Entry{
			Op:    intentlog.OpFree,
			Class: uint32(ws.class),
			Obj:   uint64(obj),
		}); err != nil {
			return err
		}
		ws.dirty = engine.WholeBlock(ws.class)
		t.writeSet[obj] = ws
	} else {
		t.lockObj(obj)
		cls, err := t.e.heap.ClassOf(obj)
		if err != nil {
			t.e.locks.Unlock(uint64(obj), t.owner())
			return err
		}
		if err := t.e.timedAppend(t.tl, intentlog.Entry{
			Op:    intentlog.OpFree,
			Class: uint32(cls),
			Obj:   uint64(obj),
		}); err != nil {
			t.e.locks.Unlock(uint64(obj), t.owner())
			return err
		}
		t.writeSet[obj] = wsEntry{class: cls, writable: false, dirty: engine.WholeBlock(cls)}
	}
	t.frees = append(t.frees, obj)
	return nil
}

// Commit makes the transaction durable and returns without copying any
// data: the backup sync happens asynchronously, and the write locks are
// released by the applier once main and backup agree.
func (t *tx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	if t.e.closed.Load() {
		return fmt.Errorf("kamino: engine closed")
	}
	if len(t.writeSet) == 0 {
		// Read-only fast path: nothing was logged (the intent slot
		// header was never written), nothing needs flushing, fencing,
		// a commit marker or the backup applier. Drop the read locks
		// and hand the slot back — the transaction leaves no durable
		// state and no trace events behind.
		if err := t.tl.Release(); err != nil {
			return err
		}
		for _, obj := range t.reads {
			t.e.locks.RUnlock(uint64(obj), t.owner())
		}
		t.done = true
		t.e.commits.Add(1)
		return nil
	}
	reg := t.e.heap.Region()
	start := time.Now()
	for obj, ws := range t.writeSet {
		if err := ws.dirty.Flush(reg, obj); err != nil {
			return err
		}
	}
	reg.Fence()
	d := time.Since(start)
	t.e.phHeap.Observe(d)
	tr := t.e.trc()
	tr.Span(string(obs.PhaseHeapPersist), t.ID(), d)
	// Commit point. Under group commit the marker persist is delegated to
	// the committer, which folds concurrent markers into one fence epoch;
	// the slot's state word is still this transaction's atomic commit
	// point either way.
	start = time.Now()
	if ch := t.e.commitCh; ch != nil {
		done := make(chan error, 1)
		ch <- commitReq{tl: t.tl, done: done}
		if err := <-done; err != nil {
			return err
		}
		d = time.Since(start)
		t.e.phGrpWait.Observe(d)
		if tr != nil {
			tr.CommitMarker(t.ID())
			tr.Span(string(obs.PhaseGroupCommitWait), t.ID(), d)
		}
	} else {
		if err := t.tl.SetState(intentlog.StateCommitted); err != nil {
			return err
		}
		d = time.Since(start)
		t.e.phMarker.Observe(d)
		if tr != nil {
			tr.CommitMarker(t.ID())
			tr.Span(string(obs.PhaseCommitPersist), t.ID(), d)
		}
	}
	for _, obj := range t.frees {
		if err := t.e.heap.ApplyFree(obj); err != nil {
			return err
		}
	}
	// Read locks impose no pending window.
	for _, obj := range t.reads {
		t.e.locks.RUnlock(uint64(obj), t.owner())
	}
	objs := make([]lockedObj, 0, len(t.writeSet))
	for obj, ws := range t.writeSet {
		objs = append(objs, lockedObj{obj: obj, dirty: ws.dirty})
	}
	t.done = true
	t.e.commits.Add(1)
	t.e.inFlt.Add(1)
	t.e.pending.Add(1)
	t.e.routeApply(objs) <- applyReq{tl: t.tl, owner: t.owner(), objs: objs, committedAt: time.Now()}
	return nil
}

// Abort restores every modified object from the backup — the only moment
// Kamino-Tx copies data synchronously for a non-dependent workload.
func (t *tx) Abort() error {
	if t.done {
		return engine.ErrTxDone
	}
	if err := t.tl.SetState(intentlog.StateAborted); err != nil {
		return err
	}
	entries, err := t.tl.Entries()
	if err != nil {
		return err
	}
	tr := t.e.trc()
	for i := len(entries) - 1; i >= 0; i-- {
		ent := entries[i]
		switch ent.Op {
		case intentlog.OpWrite:
			if err := t.e.backend.restoreFromBackup(heap.ObjID(ent.Obj), int(ent.Class)); err != nil {
				return err
			}
			tr.Rollback(t.ID(), ent.Obj)
		case intentlog.OpAlloc:
			if err := t.e.heap.RollbackAlloc(heap.ObjID(ent.Obj), int(ent.Class)); err != nil {
				return err
			}
			tr.Rollback(t.ID(), ent.Obj)
		case intentlog.OpFree:
			// Deferred free never happened.
		}
	}
	if err := t.tl.Release(); err != nil {
		return err
	}
	// Reads release before writes: an upgraded object's read holds are
	// absorbed by its write lock and must not outlive it.
	for _, obj := range t.reads {
		t.e.locks.RUnlock(uint64(obj), t.owner())
	}
	for obj := range t.writeSet {
		t.e.locks.Unlock(uint64(obj), t.owner())
	}
	t.done = true
	t.e.aborts.Add(1)
	if t.began {
		tr.Abort(t.ID())
	}
	return nil
}
