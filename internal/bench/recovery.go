package bench

import (
	"fmt"
	"time"

	"kaminotx/internal/kvstore"
	"kaminotx/internal/workload"
	"kaminotx/kamino"
)

// recoveryKeyScales and recoveryDirty are the sweep axes of the Recovery
// experiment: heap size (as multiples of cfg.Keys) and the fraction of
// keys rewritten after the last index checkpoint.
var (
	recoveryKeyScales = []int{1, 4}
	recoveryDirty     = []float64{0, 0.5}
	recoveryModes     = []kamino.Mode{kamino.ModeSimple, kamino.ModeDynamic}
)

// recoveryFullFrac is the fraction of pre-crash throughput at which the
// store counts as fully re-warmed.
const recoveryFullFrac = 0.9

// Recovery measures restart cost as the staged pipeline sees it:
// time-to-first-transaction (crash teardown + heap rescan + intent-log
// replay + index attach + one committed write) and time-to-full-throughput
// (windowed update runs until the store regains 90% of its pre-crash
// rate), swept over heap size × post-checkpoint dirty fraction. Before
// each crash the pool takes an index checkpoint (SnapshotIndex); a clean
// sweep point (dirty=0) reopens warm — the pbtree walk and the dynamic
// backend's lookup-table rebuild are skipped — while any post-checkpoint
// write bumps the image epoch and forces the cold path. The per-stage
// attribution (rescan/log_replay/index_attach/warmup) comes from
// Pool.RecoveryReport and lands in the artifact as *_ns params.
func Recovery(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Recovery: time-to-first-transaction and time-to-full-throughput vs heap size and dirty fraction",
		"expected shape: warm reopens (dirty=0) skip the index rebuild; cold attach cost grows with keys")
	fmt.Fprintf(cfg.Out, "%-10s %8s %6s %5s %10s %10s %10s %10s %10s %9s\n",
		"engine", "keys", "dirty", "warm", "ttft", "ttfull", "rescan", "replay", "attach", "regained")
	for _, mode := range recoveryModes {
		for _, scale := range recoveryKeyScales {
			for _, dirty := range recoveryDirty {
				if err := cfg.recoveryRun(mode, scale, dirty); err != nil {
					return err
				}
			}
		}
	}
	cfg.printBreakdown()
	return nil
}

// recoveryRun measures one sweep point: preload, baseline throughput,
// index checkpoint, dirty writes, crash, reopen, first transaction,
// windowed re-warm.
func (c Config) recoveryRun(mode kamino.Mode, scale int, dirty float64) error {
	c.Keys *= scale
	pool, err := kamino.Create(kamino.Options{
		Mode:              mode,
		Strict:            true, // Crash() needs the shadow image
		HeapSize:          c.heapSize(),
		LogSlots:          256,
		LogEntriesPerSlot: 64,
		ApplierWorkers:    2,
		FlushLatency:      c.FlushLatency,
		FenceLatency:      c.FenceLatency,
		Trace:             c.Trace,
	})
	if err != nil {
		return err
	}
	defer pool.Close()
	c.observe(pool)
	store, err := kvstore.Create(pool, 0)
	if err != nil {
		return err
	}
	val := make([]byte, c.ValueSize)
	for i := 0; i < c.Keys; i++ {
		workload.Value(uint64(i), val)
		if err := store.Insert(uint64(i), val); err != nil {
			return err
		}
	}
	pool.Drain()

	// Pre-crash baseline: the bar the re-warmed store must clear.
	mix := workload.Mix{Update: 100}
	base, err := c.runYCSB(store, mix, c.Threads)
	if err != nil {
		return err
	}
	pool.Drain()
	if err := pool.SnapshotIndex(); err != nil {
		return err
	}
	// Post-checkpoint dirty writes. Any transaction here bumps the image
	// epoch, so dirty>0 invalidates the snapshot and forces a cold attach.
	for i := 0; i < int(dirty*float64(c.Keys)); i++ {
		workload.Value(uint64(i)+7, val)
		if err := store.Update(uint64(i), val); err != nil {
			return err
		}
	}
	pool.Drain()

	t0 := time.Now()
	if err := pool.Crash(); err != nil {
		return err
	}
	// Crash builds a fresh engine incarnation (and registry); re-publish it
	// so -metrics-addr shows the recovery counters, not the dead pool's.
	c.observe(pool)
	store, err = kvstore.Open(pool)
	if err != nil {
		return err
	}
	workload.Value(0, val)
	if err := store.Update(0, val); err != nil {
		return err
	}
	ttft := time.Since(t0)

	// Windowed re-warm: short update runs until throughput regains
	// recoveryFullFrac of the baseline (bounded — the window count is an
	// observation, not a correctness gate).
	win := c
	win.OpsPerThread = c.OpsPerThread / 5
	if win.OpsPerThread < 200 {
		win.OpsPerThread = 200
	}
	var regained Result
	windows := 0
	for windows < 20 {
		windows++
		regained, err = win.runYCSB(store, mix, c.Threads)
		if err != nil {
			return err
		}
		if regained.OpsPerSec >= recoveryFullFrac*base.OpsPerSec {
			break
		}
	}
	ttfull := time.Since(t0)

	// pbtree_attach_warm is the warm signal every engine shares
	// (recovery_index_warm only exists on dynamic-backend engines): 1 when
	// the reopen consumed the census instead of walking the tree.
	warm := pool.Obs().Counter("pbtree_attach_warm").Load()
	params := map[string]float64{
		"keys":              float64(c.Keys),
		"dirty":             dirty,
		"ttft_ns":           float64(ttft),
		"ttfull_ns":         float64(ttfull),
		"baseline_ops_info": base.OpsPerSec,
		"warm_info":         float64(warm),
		"windows_info":      float64(windows),
	}
	report := pool.RecoveryReport()
	for _, st := range report {
		params[string(st.Stage)+"_ns"] = float64(st.Duration)
	}
	stage := func(name string) time.Duration {
		if v, ok := params[name+"_ns"]; ok {
			return time.Duration(v)
		}
		return 0
	}
	c.collect(pool)
	c.recordCell(Cell{
		Engine:   pool.Obs().Name(),
		Workload: "recovery",
		Threads:  c.Threads,
		Params:   params,
	}.withResult(regained))

	fmt.Fprintf(c.Out, "%-10s %8d %6.2f %5v %10s %10s %10s %10s %10s %8.0f%%\n",
		pool.Obs().Name(), c.Keys, dirty, warm > 0,
		ttft.Round(time.Microsecond), ttfull.Round(time.Microsecond),
		stage("rescan").Round(time.Microsecond),
		stage("log_replay").Round(time.Microsecond),
		stage("index_attach").Round(time.Microsecond),
		100*regained.OpsPerSec/base.OpsPerSec)
	return nil
}
