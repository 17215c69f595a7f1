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
)

// Config tunes the engine.
type Config struct {
	// Log sizes the intent log. Zero values take intentlog.DefaultConfig
	// with DataBytesPerSlot forced to 0 — Kamino-Tx never logs data.
	Log intentlog.Config

	// ApplierWorkers is the number of background backup-sync goroutines,
	// each with its own queue; a committed transaction is routed to a
	// worker by a hash of its smallest ObjID, so per-object copy-back
	// order is preserved (and any routing is safe: a tx's locks are held until
	// its sync completes, so two queued txs never share an object).
	// Defaults to GOMAXPROCS/2, minimum 1.
	ApplierWorkers int
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
// Coordinator plus Log Manager plus backup maintenance): the shared
// skeleton plus the backup and the appliers that keep it in sync.
type Engine struct {
	*engine.Base
	backend backend

	applyChs []chan applyReq // one queue per applier worker
	wg       sync.WaitGroup  // applier goroutines
	inFlt    sync.WaitGroup  // outstanding post-commit syncs
	pending  atomic.Int64    // committed txs whose backup sync hasn't finished
	polling  atomic.Int32    // this engine's goroutines polling now (see pollers)
	closed   atomic.Bool

	applyErr atomic.Value // error

	parks *obs.Counter // times an applier parked on its queue

	phSync *obs.PhaseStat // applier backup roll-forward work
	phLag  *obs.PhaseStat // commit → locks-released lag
}

// applyReq hands a committed transaction to an applier: its log slot, and
// its state, whose write set names the locks still held and, per object,
// the dirty extent — all the applier copies. Both are the applier's to
// release and recycle; the transaction has let go of them (Detach).
type applyReq struct {
	tl          *intentlog.TxLog
	owner       locktable.Owner
	st          *engine.TxState
	committedAt time.Time
}

// layout names the engine — "kamino-dynamic" when the backup region is
// smaller than the main heap — and gathers its devices for the skeleton.
func layout(mainReg, backupReg, logReg *nvm.Region) (name string, dynamic bool, r engine.Regions) {
	r = engine.Regions{Main: mainReg, Backup: backupReg, Log: logReg}
	if backupReg.Size() < mainReg.Size() {
		return "kamino-dynamic", true, r
	}
	return "kamino", false, r
}

// New formats fresh regions and returns a running engine. If backupReg is
// at least as large as mainReg the engine runs Kamino-Tx-Simple; otherwise
// the backup region is formatted as a dynamic partial backup
// (Kamino-Tx-Dynamic) and its usable fraction of the main heap is the
// paper's α.
func New(mainReg, backupReg, logReg *nvm.Region, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	name, dynamic, r := layout(mainReg, backupReg, logReg)
	b, err := engine.Format(name, r, cfg.Log)
	if err != nil {
		return nil, err
	}
	e := newEngine(b)
	if dynamic {
		bh, err := heap.Format(backupReg)
		if err != nil {
			return nil, err
		}
		e.backend = newDynamicBackend(mainReg, bh, b.Locks(), b.Obs())
	} else if e.backend, err = newSimpleBackend(mainReg, backupReg, b.Obs()); err != nil {
		return nil, err
	}
	e.start(cfg)
	return e, nil
}

// Open attaches to existing regions, runs crash recovery (rolling committed
// transactions forward into the backup and incomplete ones back from it),
// and returns a running engine.
//
// Recovery is the skeleton's staged pipeline (engine.Base.Reopen) with all
// three stages: the backup's lookup state is attached first (the dynamic
// backend rebuilds it by scanning the backup heap's block prefixes), then
// log replay reconciles slot groups concurrently, then the main heap rescans.
func Open(mainReg, backupReg, logReg *nvm.Region, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	name, dynamic, r := layout(mainReg, backupReg, logReg)
	b, err := engine.Attach(name, r)
	if err != nil {
		return nil, err
	}
	e := newEngine(b)
	attach := func() (err error) {
		if !dynamic {
			e.backend, err = newSimpleBackend(mainReg, backupReg, b.Obs())
			return err
		}
		bh, err := heap.Attach(backupReg)
		if err != nil {
			return err
		}
		if err := bh.Rescan(); err != nil {
			return err
		}
		db := newDynamicBackend(mainReg, bh, b.Locks(), b.Obs())
		e.backend = db
		return db.rebuild()
	}
	if err := b.Reopen(attach, e.Recover); err != nil {
		return nil, err
	}
	e.start(cfg)
	return e, nil
}

// newEngine wires Kamino's own counters and phase timers onto the
// skeleton's registry; the hot path touches only the cached pointers.
func newEngine(b *engine.Base) *Engine {
	o := b.Obs()
	return &Engine{
		Base:   b,
		parks:  o.Counter("applier_parks"),
		phSync: o.Phase(obs.PhaseBackupSync),
		phLag:  o.Phase(obs.PhaseBackupLag),
	}
}

func (e *Engine) start(cfg Config) {
	e.applyChs = make([]chan applyReq, cfg.ApplierWorkers)
	for i := range e.applyChs {
		e.applyChs[i] = make(chan applyReq, e.Log().Config().Slots)
	}
	// Live lag gauges: how much committed work the backup appliers still
	// owe. queue_depth counts requests parked across all worker queues;
	// pending_txs additionally includes the ones workers are currently
	// rolling forward.
	e.Obs().Gauge("backup_queue_depth", func() uint64 {
		var n uint64
		for _, ch := range e.applyChs {
			n += uint64(len(ch))
		}
		return n
	})
	e.Obs().Gauge("backup_pending_txs", func() uint64 {
		if n := e.pending.Load(); n > 0 {
			return uint64(n)
		}
		return 0
	})
	e.Obs().Gauge("engine_pollers", func() uint64 { return uint64(e.polling.Load()) })
	for i := 0; i < cfg.ApplierWorkers; i++ {
		e.wg.Add(1)
		go e.applier(e.applyChs[i])
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
		req, ok := e.recvPolling(ch)
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

// pollers counts the appliers, across every engine in the process, that are
// polling right now; pollersHigh is its high-water mark. At most GOMAXPROCS-1
// may poll at a time, and with one processor none does.
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

// recvPolling receives from ch for one of e's appliers. If nothing is queued
// and the budget has a slot it polls for pollSpins yields before parking;
// over budget it parks at once.
func (e *Engine) recvPolling(ch <-chan applyReq) (v applyReq, ok bool) {
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

// routeApply picks the worker queue for a committed transaction: a hash of
// its smallest object id (map iteration order is random, so the minimum
// makes routing deterministic per write-set). Any choice is correct — the
// tx's write locks are held until applyOne finishes, so no two queued
// requests share an object — but stable routing keeps a hot object's
// copy-backs on one worker.
func (e *Engine) routeApply(ws map[heap.ObjID]engine.WriteEntry) chan applyReq {
	if len(e.applyChs) == 1 {
		return e.applyChs[0]
	}
	min := ^heap.ObjID(0)
	for obj := range ws {
		if obj < min {
			min = obj
		}
	}
	h := uint64(min) * 0x9e3779b97f4a7c15 >> 32
	return e.applyChs[h%uint64(len(e.applyChs))]
}

func (e *Engine) applyOne(req applyReq) error {
	tr := e.Tracer()
	txid := req.tl.TxID()
	ws := req.st.WriteSet()
	start := time.Now()
	for obj, w := range ws {
		if err := e.backend.syncToBackup(obj, w.Dirty, offPath); err != nil {
			return err
		}
		tr.BackupSync(txid, uint64(obj))
	}
	if err := req.tl.Release(); err != nil {
		return err
	}
	d := time.Since(start)
	e.phSync.Observe(d)
	tr.Span(string(obs.PhaseBackupSync), txid, d)
	// Backup now matches main for the whole write-set: dependent
	// transactions may proceed.
	for obj := range ws {
		e.Locks().Unlock(uint64(obj), req.owner)
	}
	e.Recycle(req.st)
	// The lag from commit to here is the window a dependent transaction
	// on this write-set would have stalled.
	lag := time.Since(req.committedAt)
	e.phLag.Observe(lag)
	tr.Span(string(obs.PhaseBackupLag), txid, lag)
	return nil
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
	e.wg.Wait()
	return e.err()
}

func (e *Engine) err() error {
	if v := e.applyErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Recover implements the paper's recovery procedure: committed transactions
// are rolled forward into the backup (after re-applying their deferred
// frees); running or aborted transactions are rolled back from the backup.
// Incomplete transactions are treated the same as aborted ones.
func (e *Engine) Recover() error {
	return e.Log().Recover(func(v intentlog.SlotView) error {
		switch v.State {
		case intentlog.StateCommitted:
			if err := e.RedoFrees(v.Entries); err != nil {
				return err
			}
			for _, ent := range v.Entries {
				obj := heap.ObjID(ent.Obj)
				if err := e.backend.syncToBackup(obj, engine.WholeBlock(obj, int(ent.Class)), offPath); err != nil {
					return err
				}
			}
		case intentlog.StateRunning, intentlog.StateAborted:
			if err := e.Rollback(nil, 0, v.Entries, e.restore); err != nil {
				return err
			}
		}
		return v.Free()
	})
}

// restore copies the backup copy of a write intent's object over the main
// heap — the only moment Kamino-Tx copies data synchronously for a
// non-dependent workload.
func (e *Engine) restore(ent intentlog.Entry) error {
	return e.backend.restoreFromBackup(heap.ObjID(ent.Obj), int(ent.Class))
}

// Begin implements engine.Engine.
func (e *Engine) Begin() (engine.Tx, error) {
	if err := e.err(); err != nil {
		return nil, fmt.Errorf("kamino: engine failed: %w", err)
	}
	bt, err := e.BeginTx()
	if err != nil {
		return nil, err
	}
	return &tx{BaseTx: bt, e: e}, nil
}

type tx struct {
	engine.BaseTx
	e *Engine
}

// Add declares the write intent: lock (blocking on pending objects), make
// sure a consistent backup copy exists, and durably log the object address.
// No data is copied (the dynamic backend copies only on a backup miss).
func (t *tx) Add(obj heap.ObjID) error {
	cls, ok, err := t.Declare(obj)
	if !ok {
		return err
	}
	// Backup-exists-before-modify (paper §3): holding the lock, the
	// backup copy of obj is in sync; for the dynamic backend this may
	// create it on demand.
	copied, err := t.e.backend.ensure(obj, cls)
	if err == nil {
		if copied {
			t.Tracer().BackupSync(t.ID(), uint64(obj))
		}
		err = t.Append(intentlog.OpWrite, obj, cls)
	}
	return t.Admit(obj, cls, err)
}

// Commit makes the transaction durable and returns without copying any
// data: the backup sync happens asynchronously, and the write locks are
// released by the applier once main and backup agree.
func (t *tx) Commit() error {
	if t.Done() {
		return engine.ErrTxDone
	}
	if t.e.closed.Load() {
		return fmt.Errorf("kamino: engine closed")
	}
	if t.ReadOnly() {
		// Nothing for the backup applier either: the skeleton's
		// persist-free commit is the whole of it.
		return t.Finish()
	}
	at, err := t.PersistHeap(time.Now())
	if err != nil {
		return err
	}
	// Commit point: the slot's state word. The marker's end is the commit
	// instant the applier measures its lag from.
	if at, err = t.PersistMarker(at); err != nil {
		return err
	}
	st, err := t.Detach()
	if err != nil {
		return err
	}
	t.e.inFlt.Add(1)
	t.e.pending.Add(1)
	t.e.routeApply(st.WriteSet()) <- applyReq{tl: t.Log(), owner: t.Owner(), st: st, committedAt: at}
	return nil
}

// Abort restores every modified object from the backup.
func (t *tx) Abort() error { return t.AbortWith(t.e.restore) }
