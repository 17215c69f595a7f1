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
	// ChainBatchOps caps the records one chain hop carries in a message
	// for the chain experiments (kaminobench -batch-ops). Zero keeps
	// batches of one. ChainScaling sweeps batch sizes itself and ignores
	// it.
	ChainBatchOps int
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

// closedLoop is every experiment's load driver. It runs threads clients on
// their own goroutines, each issuing n operations back to back: client th
// is built by newClient(th) on its goroutine, and its operation i is op(i).
// Throughput is the operations completed over the call's wall time, and
// the mean latency is the clients' summed time inside op over the same
// count. A warmup is a call of its own whose Result is dropped, so neither
// its operations nor its time reach the measured cell.
func closedLoop(threads, n int, newClient func(th int) (op func(i int) error)) (Result, error) {
	busy := make([]time.Duration, threads)
	errs := make([]error, threads)
	var wg sync.WaitGroup
	start := time.Now()
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := newClient(th)
			for i := 0; i < n; i++ {
				t0 := time.Now()
				if err := op(i); err != nil {
					errs[th] = err
					return
				}
				busy[th] += time.Since(t0)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var sum time.Duration
	for th := range busy {
		if errs[th] != nil {
			return Result{}, errs[th]
		}
		sum += busy[th]
	}
	ops := threads * n
	if ops == 0 {
		return Result{}, nil
	}
	return Result{OpsPerSec: float64(ops) / elapsed.Seconds(), Mean: sum / time.Duration(ops)}, nil
}

// ycsbClients builds closedLoop clients that drive mix against store.
// Client th draws from its own generator, seeded th+1, which outlives one
// call: a warmup and the measured run after it are one operation stream.
func (c Config) ycsbClients(store *kvstore.Store, mix workload.Mix, threads int) func(th int) func(int) error {
	ks := workload.NewKeyState(uint64(c.Keys))
	gens := make([]*workload.Generator, threads)
	for th := range gens {
		gens[th] = workload.NewGenerator(mix, ks, int64(th+1))
	}
	return func(th int) func(int) error {
		gen, val := gens[th], make([]byte, c.ValueSize)
		return func(int) error {
			op := gen.Next()
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
				return fmt.Errorf("op %v key %d: %w", op.Kind, op.Key, err)
			}
			return nil
		}
	}
}

// measureYCSB loads a fresh store for mode and runs one YCSB workload on it
// with threads clients, each warmed up by min(ops/5, 1000) unmeasured
// operations first.
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
	clients := c.ycsbClients(store, mix, threads)
	if _, err := closedLoop(threads, min(c.OpsPerThread/5, 1000), clients); err != nil {
		return Result{}, err
	}
	r, err := closedLoop(threads, c.OpsPerThread, clients)
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
