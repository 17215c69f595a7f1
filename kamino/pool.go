// Package kamino is the public API of the Kamino-Tx reproduction: a
// transactional persistent object heap for (simulated) non-volatile main
// memory, implementing the EuroSys 2017 paper "Atomic In-place Updates for
// Non-volatile Main Memories with Kamino-Tx".
//
// A Pool is a persistent heap plus an atomicity engine. Transactions mirror
// Intel NVML's programming model (paper Table 2 / Figure 10):
//
//	pool, _ := kamino.Create(kamino.Options{Mode: kamino.ModeSimple})
//	defer pool.Close()
//	err := pool.Update(func(tx *kamino.Tx) error {
//		obj, err := tx.Alloc(64)            // TX_ZALLOC
//		if err != nil { return err }
//		if err := tx.Add(obj); err != nil { // TX_ADD (declare write intent)
//			return err
//		}
//		return tx.Write(obj, 0, []byte("hello"))
//	})                                      // TX_COMMIT / TX_ABORT
//
// The Mode selects the paper's Kamino-Tx-Simple or Kamino-Tx-Dynamic, or
// one of the baselines (undo logging, copy-on-write, no logging) so the
// same application code can be benchmarked across mechanisms.
package kamino

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"kaminotx/internal/engine"
	"kaminotx/internal/engine/cow"
	"kaminotx/internal/engine/inplace"
	"kaminotx/internal/engine/kamino"
	"kaminotx/internal/engine/nolog"
	"kaminotx/internal/engine/undo"
	"kaminotx/internal/heap"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
)

// ObjID identifies a persistent object; it doubles as the persistent
// pointer type stored inside objects. Nil is the null pointer.
type ObjID = heap.ObjID

// Nil is the null persistent pointer.
const Nil = heap.Nil

// rootSize is the size of the root object Create allocates (the
// application's entry point into the heap). No caller ever set another
// size, so it is a constant rather than an Options field.
const rootSize = 256

// Stats re-exports engine counters.
type Stats = engine.Stats

// Pool is a transactional persistent object heap.
type Pool struct {
	opts Options
	// eng is the current engine incarnation. Crash, Reload and Promote
	// replace it while introspection (Obs, Stats, Engine) may be reading
	// from other goroutines, so it is published through an atomic pointer:
	// a reader sees the old engine or the new one, never a torn interface.
	eng  atomic.Pointer[engine.Engine]
	root ObjID

	mainReg, backupReg, logReg *nvm.Region
}

// Create builds a fresh pool per opts and allocates its root object. With
// Options.Dir it writes the region files first and pool.json last, so a
// directory without pool.json never holds a pool.
func Create(opts Options) (*Pool, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	p := &Pool{opts: opts}
	if err := p.create(); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

func (p *Pool) create() error {
	if err := p.makeRegions(); err != nil {
		return err
	}
	if err := p.makeEngine(true); err != nil {
		return err
	}
	// Allocate the root object and store its id in the heap header.
	tx, err := p.Begin()
	if err != nil {
		return err
	}
	root, err := tx.Alloc(rootSize)
	if err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	eng := p.Engine()
	eng.Drain()
	if err := eng.Heap().SetRoot(root); err != nil {
		return err
	}
	p.root = root
	if p.opts.Dir == "" {
		return nil
	}
	return p.writeMeta(nil)
}

func (p *Pool) regionOptions() nvm.Options {
	mode := nvm.ModeFast
	if p.opts.Strict {
		mode = nvm.ModeStrict
	}
	return nvm.Options{
		Mode: mode,
		Latency: nvm.LatencyModel{
			FlushPerLine: p.opts.FlushLatency,
			Fence:        p.opts.FenceLatency,
		},
	}
}

// backupOptions are the backup region's options. Kamino-Tx-Simple's backup
// is written only by the asynchronous applier (and recovery): its
// write-backs occupy the NVM device, not a CPU's critical path, so injected
// latency — which models a thread stalling on persistence — does not apply
// to it. Kamino-Tx-Dynamic's is charged like any region: a backup miss
// copies the object into it on the critical path, and the model cannot tell
// that copy from the applier's.
func (p *Pool) backupOptions() nvm.Options {
	o := p.regionOptions()
	if p.opts.Mode == ModeSimple {
		o.Latency = nvm.LatencyModel{}
	}
	return o
}

// makeRegions builds the mode's regions: in memory, or as fresh files in
// Options.Dir.
func (p *Pool) makeRegions() error {
	dir := p.opts.Dir
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return p.eachRegion(func(name string, size int, opts nvm.Options) (*nvm.Region, error) {
		if dir == "" {
			return nvm.New(size, opts)
		}
		return nvm.CreateFile(filepath.Join(dir, name), size, opts)
	})
}

// eachRegion builds the main, backup (modes that have one) and log (modes
// that log) regions with newRegion, in that order, naming each one's file.
func (p *Pool) eachRegion(newRegion func(file string, size int, opts nvm.Options) (*nvm.Region, error)) error {
	ropts := p.regionOptions()
	var err error
	p.mainReg, err = newRegion("main.img", p.opts.HeapSize, ropts)
	if err != nil {
		return err
	}
	if n := p.opts.backupSize(); n > 0 {
		p.backupReg, err = newRegion("backup.img", n, p.backupOptions())
		if err != nil {
			return err
		}
	}
	if p.opts.Mode != ModeNoLog {
		p.logReg, err = newRegion("log.img", p.opts.logConfig().RegionSize(), ropts)
		if err != nil {
			return err
		}
	}
	return nil
}

// makeEngine builds the mode's engine over the pool's regions: each
// mechanism has one constructor for fresh regions and one that reopens.
func (p *Pool) makeEngine(fresh bool) error {
	main, log, logCfg := p.mainReg, p.logReg, p.opts.logConfig()
	var (
		eng engine.Engine
		err error
	)
	switch mode := p.opts.Mode; {
	case mode == ModeSimple || mode == ModeDynamic:
		cfg := kamino.Config{Log: logCfg, ApplierWorkers: p.opts.ApplierWorkers}
		if fresh {
			eng, err = kamino.New(main, p.backupReg, log, cfg)
			break
		}
		eng, err = kamino.Open(main, p.backupReg, log, cfg)
	case mode == ModeUndo && fresh:
		eng, err = undo.New(main, log, logCfg)
	case mode == ModeUndo:
		eng, err = undo.Open(main, log)
	case mode == ModeCoW && fresh:
		eng, err = cow.New(main, log, logCfg)
	case mode == ModeCoW:
		eng, err = cow.Open(main, log)
	case mode == ModeNoLog && fresh:
		eng, err = nolog.New(main)
	case mode == ModeNoLog:
		eng, err = nolog.Open(main)
	case mode == ModeInPlace && fresh:
		eng, err = inplace.New(main, log, logCfg)
	case mode == ModeInPlace:
		eng, err = inplace.Open(main, log)
	default:
		err = fmt.Errorf("kamino: unknown mode %q", mode)
	}
	if err != nil {
		// Leave no engine behind: Close checks for nil to decide whether
		// there is an engine to drain.
		p.eng.Store(nil)
		return err
	}
	p.attachTrace(eng)
	p.eng.Store(&eng)
	return nil
}

// attachTrace registers this engine incarnation with the pool's trace
// recorder (if any). A fresh actor id is minted per incarnation so events
// from before and after a Crash or Promote land under distinct actors.
func (p *Pool) attachTrace(eng engine.Engine) {
	rec := p.opts.Trace
	if rec == nil {
		return
	}
	actor := fmt.Sprintf("%s#%d", eng.Name(), rec.NextActorID())
	eng.SetTracer(rec.Tracer(actor))
	p.mainReg.SetTracer(rec.Tracer(actor + "/main"))
	if p.backupReg != nil {
		p.backupReg.SetTracer(rec.Tracer(actor + "/backup"))
	}
	if p.logReg != nil {
		p.logReg.SetTracer(rec.Tracer(actor + "/log"))
	}
}

// Root returns the pool's root object, the durable entry point applications
// hang their data structures off.
func (p *Pool) Root() ObjID { return p.root }

// Mode returns the pool's atomicity mechanism.
func (p *Pool) Mode() Mode { return p.opts.Mode }

// Begin starts a transaction.
func (p *Pool) Begin() (*Tx, error) {
	inner, err := p.Engine().Begin()
	if err != nil {
		return nil, err
	}
	return &Tx{inner: inner, pool: p}, nil
}

// Update runs fn inside a transaction, committing if fn returns nil and
// aborting otherwise. The returned error is fn's (or the commit/abort
// error).
func (p *Pool) Update(fn func(*Tx) error) error {
	_, err := p.UpdateT(fn)
	return err
}

// UpdateT is Update returning the engine transaction id alongside fn's
// (or the commit/abort) error: callers correlating work with the trace
// stream join on the id, which engine emissions key events by. The id is
// valid even when the transaction aborts.
func (p *Pool) UpdateT(fn func(*Tx) error) (uint64, error) {
	tx, err := p.Begin()
	if err != nil {
		return 0, err
	}
	txid := tx.ID()
	if err := fn(tx); err != nil {
		if aerr := tx.Abort(); aerr != nil && !errors.Is(aerr, engine.ErrTxDone) {
			return txid, fmt.Errorf("%w (abort also failed: %v)", err, aerr)
		}
		return txid, err
	}
	return txid, tx.Commit()
}

// View runs fn inside a transaction that is always aborted; use it for
// read-only work (reads acquire read locks, so views see consistent data
// and wait for pending objects).
func (p *Pool) View(fn func(*Tx) error) error {
	tx, err := p.Begin()
	if err != nil {
		return err
	}
	ferr := fn(tx)
	if aerr := tx.Abort(); aerr != nil && ferr == nil {
		return aerr
	}
	return ferr
}

// Drain blocks until all asynchronous post-commit work (Kamino's backup
// syncs) has finished.
func (p *Pool) Drain() { p.Engine().Drain() }

// Stats returns cumulative engine counters.
func (p *Pool) Stats() Stats { return p.Engine().Stats() }

// Obs returns the engine's observability registry: counters, NVM gauges,
// and per-transaction phase latency histograms.
func (p *Pool) Obs() *obs.Registry { return p.Engine().Obs() }

// Engine exposes the current engine incarnation (nil only after a failed
// crash-reopen, reload or promotion). Internal benchmarks use it; most
// applications should not.
func (p *Pool) Engine() engine.Engine {
	if e := p.eng.Load(); e != nil {
		return *e
	}
	return nil
}

// RecoveryReport returns the staged-pipeline timings of the engine open
// that produced the current incarnation — nil for a freshly created pool
// or an engine that does not report stages. kaminod logs it; the benchmark
// attributes a reopen's time with it.
func (p *Pool) RecoveryReport() []engine.StageReport {
	if r, ok := p.Engine().(interface{ RecoveryReport() []engine.StageReport }); ok {
		return r.RecoveryReport()
	}
	return nil
}

// NVMStats returns the main region's device-level counters (flushes,
// fences, bytes written).
func (p *Pool) NVMStats() nvm.Stats { return p.mainReg.Stats() }

// Crash simulates a power failure (losing every unflushed or unfenced
// write), runs recovery, and leaves the pool ready for new transactions.
// The pool must have been created with Strict. Outstanding transactions
// must be quiesced (their goroutines stopped) before calling Crash.
func (p *Pool) Crash() error { return p.crash(nil) }

// CrashPartial is Crash with the weaker loss model: each
// flushed-but-unfenced cache line independently survives or is lost,
// decided by a deterministic hash of seed and line number
// (nvm.KeepBySeed). Fenced lines always survive; unflushed lines never do.
func (p *Pool) CrashPartial(seed int64) error { return p.crash(nvm.KeepBySeed(seed)) }

// crash power-fails every region between closing the engine and reopening
// it, keeping the in-doubt lines keep selects (none when keep is nil).
func (p *Pool) crash(keep func(line int) bool) error {
	if !p.opts.Strict {
		return nvm.ErrFastMode
	}
	return p.reopen(func() error {
		for _, r := range []*nvm.Region{p.mainReg, p.backupReg, p.logReg} {
			if r == nil {
				continue
			}
			var err error
			if keep == nil {
				err = r.Crash()
			} else {
				err = r.CrashPartial(keep)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// Reload reopens the pool's engine over the current region contents and
// re-reads the root pointer from the heap header. Chain replicas use it
// after state transfer: the main region has just been overwritten with a
// donor's heap image, so every volatile engine structure (allocator
// cursors, lock tables, caches) must be rebuilt from the new image. Unlike
// Crash it loses nothing and needs no Strict mode — the regions are kept
// exactly as written.
func (p *Pool) Reload() error { return p.reopen(nil) }

// reopen drains and closes the engine, runs between (when non-nil) on the
// quiet regions, then opens a new engine over them and re-reads the root.
func (p *Pool) reopen(between func() error) error {
	old := p.Engine()
	old.Drain()
	if err := old.Close(); err != nil {
		return err
	}
	if between != nil {
		if err := between(); err != nil {
			return err
		}
	}
	if err := p.makeEngine(false); err != nil {
		return err
	}
	root, err := p.Engine().Heap().Root()
	if err != nil {
		return err
	}
	p.root = root
	return nil
}

// Promote converts an in-place chain-replica pool into a Kamino-Tx pool
// with its own backup — the paper's head-promotion step (§5.2: "the new
// head goes through its Log Manager's intent logs [and] creates a local
// backup"). alpha < 1 builds a dynamic backup; alpha >= 1 a full mirror.
// Chain-level recovery of incomplete transactions must have completed
// before promotion.
func (p *Pool) Promote(alpha float64) error {
	if p.opts.Dir != "" {
		return errors.New("kamino: Promote of a file-backed pool (chain replicas are held in memory)")
	}
	if p.opts.Mode != ModeInPlace {
		return fmt.Errorf("kamino: Promote from mode %q (only %q replicas promote)", p.opts.Mode, ModeInPlace)
	}
	ie, ok := p.Engine().(*inplace.Engine)
	if !ok {
		return errors.New("kamino: engine mismatch for in-place pool")
	}
	if len(ie.PendingRecovery()) > 0 {
		return errors.New("kamino: unresolved chain recovery; resolve before promoting")
	}
	if err := ie.Close(); err != nil {
		return err
	}
	var err error
	if alpha >= 1 {
		p.opts.Mode = ModeSimple
		p.backupReg, err = nvm.New(p.opts.HeapSize, p.backupOptions())
		if err != nil {
			return err
		}
		// A full backup must start as a mirror of main.
		if err := nvm.Copy(p.backupReg, 0, p.mainReg, 0, p.opts.HeapSize); err != nil {
			return err
		}
		if err := p.backupReg.Persist(0, p.opts.HeapSize); err != nil {
			return err
		}
	} else {
		p.opts.Mode = ModeDynamic
		p.opts.Alpha = alpha
		p.backupReg, err = nvm.New(p.opts.backupSize(), p.backupOptions())
		if err != nil {
			return err
		}
		if _, err := heap.Format(p.backupReg); err != nil {
			return err
		}
	}
	return p.makeEngine(false)
}

// InPlaceEngine exposes the chain-recovery hooks of an in-place replica
// pool (nil for other modes).
func (p *Pool) InPlaceEngine() *inplace.Engine {
	ie, _ := p.Engine().(*inplace.Engine)
	return ie
}

// regions lists the pool's NVM regions: main, then backup and log where
// the mode has them.
func (p *Pool) regions() []*nvm.Region {
	var out []*nvm.Region
	for _, r := range []*nvm.Region{p.mainReg, p.backupReg, p.logReg} {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Close drains the pool and shuts its engine down. A file-backed pool's
// regions are then written back to their files once and unmapped: a clean
// close leaves nothing to recover, while a process that dies without it
// leaves what its regions held durably, which Open recovers from.
func (p *Pool) Close() error {
	var err error
	if eng := p.Engine(); eng != nil {
		// Nil after a failed crash-reopen or reload: no engine to drain.
		eng.Drain()
		err = eng.Close()
	}
	for _, r := range p.regions() {
		if cerr := r.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// writeMeta writes the pool's options as its pool.json — structure and
// tunables, so a plain reopen runs as the last open did — unless the file
// already reads old. It goes to a temporary file, synced, then renamed into
// place, so a kill leaves the old file or the new one.
func (p *Pool) writeMeta(old []byte) error {
	buf, err := json.MarshalIndent(p.opts, "", "  ")
	if err != nil || bytes.Equal(buf, old) {
		return err
	}
	path := filepath.Join(p.opts.Dir, "pool.json")
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Open maps a file-backed pool's region files from dir and runs crash
// recovery over them: whatever the last process left, after a clean Close
// or a kill at any instant. An acknowledged transaction is in the files
// from the moment it commits.
//
// An optional Options value overrides runtime tunables for this
// incarnation — ApplierWorkers, FlushLatency, FenceLatency, Trace.
// Structural fields (Mode, HeapSize, log geometry, …) describe the stored
// images; setting one in the override to anything but its zero value or
// the stored value is a configuration error. Every knob is in force before
// recovery runs, so even the recovery scans are traced as configured.
func Open(dir string, overrides ...Options) (*Pool, error) {
	buf, err := os.ReadFile(filepath.Join(dir, "pool.json"))
	if err != nil {
		return nil, fmt.Errorf("kamino: open %s: %w", dir, err)
	}
	stored := Options{Dir: dir}
	if err := json.Unmarshal(buf, &stored); err != nil {
		return nil, fmt.Errorf("kamino: open %s: bad pool.json: %w", dir, err)
	}
	for _, ov := range overrides {
		if stored, err = stored.applyOverrides(ov); err != nil {
			return nil, fmt.Errorf("kamino: open %s: %w", dir, err)
		}
	}
	opts, err := stored.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("kamino: open %s: %w", dir, err)
	}
	p := &Pool{opts: opts}
	if err := p.open(buf); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

func (p *Pool) open(meta []byte) error {
	err := p.eachRegion(func(name string, size int, opts nvm.Options) (*nvm.Region, error) {
		return nvm.OpenFile(filepath.Join(p.opts.Dir, name), size, opts)
	})
	if err != nil {
		return err
	}
	if err := p.makeEngine(false); err != nil {
		return err
	}
	if p.root, err = p.Engine().Heap().Root(); err != nil {
		return err
	}
	// Record the tunables this open runs with, and drop any field this
	// build no longer writes.
	return p.writeMeta(meta)
}
