// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (§7). Each experiment loads
// the key-value store (or TPC-C database, or replicated chain), runs the
// paper's workload against the relevant engines, and prints the same rows
// or series the paper reports. Absolute numbers differ from the paper's
// testbed — the substrate is a simulator — but the comparisons (who wins,
// by what factor, where the crossovers are) reproduce the paper's shape.
package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"kaminotx/internal/kvstore"
	"kaminotx/internal/stats"
	"kaminotx/internal/trace"
	"kaminotx/internal/workload"
	"kaminotx/kamino"
)

// Config scales the experiments.
type Config struct {
	// Keys preloaded into the store. Default 50_000.
	Keys int
	// ValueSize in bytes (the paper uses 1 KiB). Default 1024.
	ValueSize int
	// OpsPerThread bounds each worker's operation count. Default 10_000.
	OpsPerThread int
	// Threads used where an experiment does not sweep thread counts.
	// Default 4.
	Threads int
	// FlushLatency and FenceLatency model the cost of CLWB and SFENCE on
	// the simulated NVM. Defaults: 300ns per flushed line / 500ns per
	// fence — 3D-XPoint-class figures. Without a cost for persistence
	// the simulator's copies would be free and every logging mechanism
	// would look equally cheap; the paper notes its NVDIMM results are a
	// lower bound and "for other slower NVMs, the benefits of Kamino-Tx
	// would only be larger" (§7).
	FlushLatency time.Duration
	FenceLatency time.Duration
	// ChainBatchOps / ChainBatchBytes / ChainBatchDelay configure chain
	// hop batching for the chain experiments (kaminobench -batch-ops,
	// -batch-bytes, -batch-delay). Zero keeps the unbatched per-op
	// protocol. ChainScaling sweeps batch sizes itself and ignores
	// ChainBatchOps.
	ChainBatchOps   int
	ChainBatchBytes int
	ChainBatchDelay time.Duration
	// Out receives the report. Required.
	Out io.Writer
	// Trace, if set, records device and transaction lifecycle events of
	// every pool an experiment creates (kaminobench -trace-out / -audit).
	Trace *trace.Recorder

	// agg accumulates per-engine obs snapshots over one experiment for
	// the phase-breakdown table printed at its end.
	agg *obsAgg
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Keys == 0 {
		c.Keys = 50_000
	}
	if c.ValueSize == 0 {
		c.ValueSize = 1024
	}
	if c.OpsPerThread == 0 {
		c.OpsPerThread = 10_000
	}
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.FlushLatency == 0 {
		c.FlushLatency = 300 * time.Nanosecond
	}
	if c.FenceLatency == 0 {
		c.FenceLatency = 500 * time.Nanosecond
	}
	if c.agg == nil {
		c.agg = newObsAgg()
	}
	return c
}

// heapSize estimates the region size needed for keys of valueSize plus
// B+Tree nodes and slack for inserts.
func (c Config) heapSize() int {
	per := c.ValueSize + 128 // value object + amortized node space
	size := c.Keys*per*3 + (64 << 20)
	return size
}

// poolFor builds a pool for the given mode at benchmark scale (fast NVM
// mode: no crash-simulation shadow).
func (c Config) poolFor(mode kamino.Mode, alpha float64) (*kamino.Pool, error) {
	return kamino.Create(kamino.Options{
		Mode:              mode,
		HeapSize:          c.heapSize(),
		Alpha:             alpha,
		LogSlots:          256,
		LogEntriesPerSlot: 64,
		ApplierWorkers:    2,
		FlushLatency:      c.FlushLatency,
		FenceLatency:      c.FenceLatency,
		Trace:             c.Trace,
	})
}

// loadStore creates and preloads a KV store with Keys records.
func (c Config) loadStore(mode kamino.Mode, alpha float64) (*kamino.Pool, *kvstore.Store, error) {
	pool, err := c.poolFor(mode, alpha)
	if err != nil {
		return nil, nil, err
	}
	store, err := kvstore.Create(pool, 0)
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	val := make([]byte, c.ValueSize)
	for i := 0; i < c.Keys; i++ {
		workload.Value(uint64(i), val)
		if err := store.Insert(uint64(i), val); err != nil {
			pool.Close()
			return nil, nil, err
		}
	}
	pool.Drain()
	return pool, store, nil
}

// Result is one measured cell: throughput and mean latency, the two
// quantities the paper's figures plot.
type Result struct {
	OpsPerSec float64
	Mean      time.Duration
}

// runYCSB drives the YCSB mix against a loaded store with the given number
// of worker threads.
func (c Config) runYCSB(store *kvstore.Store, mix workload.Mix, threads int) (Result, error) {
	ks := workload.NewKeyState(uint64(c.Keys))
	var col stats.Collector
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	warmup := c.OpsPerThread / 5
	if warmup > 1000 {
		warmup = 1000
	}
	start := time.Now()
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			gen := workload.NewGenerator(mix, ks, seed)
			var hist stats.Histogram
			val := make([]byte, c.ValueSize)
			for i := -warmup; i < c.OpsPerThread; i++ {
				op := gen.Next()
				t0 := time.Now()
				var err error
				switch op.Kind {
				case workload.OpRead:
					_, _, err = store.Read(op.Key)
				case workload.OpUpdate:
					workload.Value(op.Key+1, val)
					err = store.Update(op.Key, val)
				case workload.OpInsert:
					workload.Value(op.Key, val)
					err = store.Insert(op.Key, val)
				case workload.OpRMW:
					err = store.ReadModifyWrite(op.Key, func(old []byte, found bool) ([]byte, error) {
						workload.Value(op.Key+2, val)
						return val, nil
					})
				}
				if err != nil {
					errCh <- fmt.Errorf("op %v key %d: %w", op.Kind, op.Key, err)
					return
				}
				if i >= 0 {
					hist.Record(time.Since(t0))
				}
			}
			col.Report(&hist, uint64(c.OpsPerThread))
		}(int64(th + 1))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return Result{}, err
	}
	elapsed := time.Since(start).Seconds()
	return Result{OpsPerSec: float64(col.Ops()) / elapsed, Mean: col.Histogram().Mean()}, nil
}

// measureYCSB loads a fresh store for mode and runs one YCSB workload.
func (c Config) measureYCSB(mode kamino.Mode, alpha float64, w byte, threads int) (Result, error) {
	mix, err := workload.MixFor(w)
	if err != nil {
		return Result{}, err
	}
	pool, store, err := c.loadStore(mode, alpha)
	if err != nil {
		return Result{}, err
	}
	defer pool.Close()
	r, err := c.runYCSB(store, mix, threads)
	if err != nil {
		return Result{}, err
	}
	c.collect(pool)
	return r, nil
}

func header(w io.Writer, title, note string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
	if note != "" {
		fmt.Fprintf(w, "%s\n", note)
	}
}
