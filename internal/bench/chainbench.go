package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"kaminotx/internal/stats"
	"kaminotx/internal/workload"
	chainpkg "kaminotx/kamino/chain"
)

// Chain experiment parameters: tolerate f=2 failures, as in the paper.
// Kamino-Tx-Chain needs f+2 = 4 replicas; traditional chain f+1 = 3.
const (
	chainF = 2
	// chainHopLatency models one RDMA hop on the paper's 32 Gbps
	// InfiniBand fabric (~2-3µs). The chain comparison is sensitive to
	// the lc:ln ratio (Table 1): with copies costing a few µs per
	// replica, a much slower network would hide them entirely.
	chainHopLatency = 3 * time.Microsecond
)

// chainKeys uses a smaller key count: chain throughput is network-bound,
// so the working set size barely matters.
func (c Config) chainKeys() int {
	k := c.Keys / 10
	if k < 1000 {
		k = 1000
	}
	return k
}

func (c Config) chainOps() int {
	n := c.OpsPerThread / 10
	if n < 200 {
		n = 200
	}
	return n
}

// newCluster builds a chain cluster preloaded with chainKeys records.
func (c Config) newCluster(mode chainpkg.Mode) (*chainpkg.Cluster, error) {
	replicas := chainF + 2
	if mode == chainpkg.ModeTraditional {
		replicas = chainF + 1
	}
	return c.newClusterN(mode, replicas, c.ChainBatchOps)
}

// newClusterN is newCluster with explicit chain length and batch size (the
// scaling sweep varies both).
func (c Config) newClusterN(mode chainpkg.Mode, replicas, batchOps int) (*chainpkg.Cluster, error) {
	keys := c.chainKeys()
	cl, err := chainpkg.New(chainpkg.Options{
		Mode:         mode,
		Replicas:     replicas,
		HeapSize:     keys*(c.ValueSize+256)*2 + (32 << 20),
		Alpha:        0.5,
		HopLatency:   chainHopLatency,
		FlushLatency: c.FlushLatency,
		FenceLatency: c.FenceLatency,
		BatchOps:     batchOps,
		Trace:        c.Trace,
	})
	if err != nil {
		return nil, err
	}
	val := make([]byte, c.ValueSize)
	for i := 0; i < keys; i++ {
		workload.Value(uint64(i), val)
		if err := cl.Put(uint64(i), val); err != nil {
			cl.Close()
			return nil, err
		}
	}
	return cl, nil
}

// runChainYCSB drives a YCSB mix against a cluster. Reads go to the tail;
// updates/inserts are chain puts; RMW is a tail read followed by a chain
// put from the head's client.
func (c Config) runChainYCSB(cl *chainpkg.Cluster, mix workload.Mix, threads int) (Result, error) {
	ks := workload.NewKeyState(uint64(c.chainKeys()))
	ops := c.chainOps()
	var col stats.Collector
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	start := time.Now()
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			gen := workload.NewGenerator(mix, ks, seed)
			var hist stats.Histogram
			val := make([]byte, c.ValueSize)
			for i := 0; i < ops; i++ {
				op := gen.Next()
				t0 := time.Now()
				var err error
				switch op.Kind {
				case workload.OpRead:
					_, _, err = cl.Get(op.Key)
				case workload.OpUpdate, workload.OpInsert:
					workload.Value(op.Key+1, val)
					err = cl.Put(op.Key, val)
				case workload.OpRMW:
					if _, _, err = cl.Get(op.Key); err == nil {
						workload.Value(op.Key+2, val)
						err = cl.Put(op.Key, val)
					}
				}
				if err != nil {
					errCh <- fmt.Errorf("chain op %v key %d: %w", op.Kind, op.Key, err)
					return
				}
				hist.Record(time.Since(t0))
			}
			col.Report(&hist, uint64(ops))
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

func (c Config) measureChain(mode chainpkg.Mode, w byte, threads int) (Result, error) {
	mix, err := workload.MixFor(w)
	if err != nil {
		return Result{}, err
	}
	cl, err := c.newCluster(mode)
	if err != nil {
		return Result{}, err
	}
	defer cl.Close()
	r, err := c.runChainYCSB(cl, mix, threads)
	if err != nil {
		return Result{}, err
	}
	if cerr := cl.Err(); cerr != nil {
		return Result{}, cerr
	}
	c.collectChain(cl)
	return r, nil
}

// Fig17 reproduces Figure 17: replicated YCSB latency, Kamino-Tx-Chain vs
// traditional chain replication, each tolerating two failures. Expected
// shape: Kamino-Tx-Chain up to ~2.2x lower latency on write-heavy
// workloads because no replica copies data in the critical path.
func Fig17(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Figure 17: chain latency (µs), Kamino-Tx-Chain vs traditional (f=2)",
		"paper shape: Kamino-Tx-Chain up to 2.2x faster on write-heavy workloads")
	fmt.Fprintf(cfg.Out, "%-8s %14s %14s %10s\n", "workload", "kamino-chain", "traditional", "ratio")
	for _, w := range []byte{'A', 'B', 'D', 'F'} {
		ka, err := cfg.measureChain(chainpkg.ModeKamino, w, 1)
		if err != nil {
			return err
		}
		tr, err := cfg.measureChain(chainpkg.ModeTraditional, w, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "YCSB-%c   %14.1f %14.1f %9.2fx\n",
			w, us(ka.Mean), us(tr.Mean), float64(tr.Mean)/float64(ka.Mean))
	}
	cfg.printBreakdown()
	return nil
}

// Fig18 reproduces Figure 18: replicated YCSB throughput for the same
// setups. Expected shape: Kamino-Tx-Chain up to ~2.2x higher throughput on
// write-heavy workloads for 33% extra storage.
func Fig18(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Figure 18: chain throughput (K ops/sec), Kamino-Tx-Chain vs traditional (f=2)",
		"paper shape: Kamino-Tx-Chain up to 2.2x on write-heavy workloads")
	fmt.Fprintf(cfg.Out, "%-8s %14s %14s %10s\n", "workload", "kamino-chain", "traditional", "speedup")
	for _, w := range []byte{'A', 'B', 'D', 'F'} {
		ka, err := cfg.measureChain(chainpkg.ModeKamino, w, cfg.Threads)
		if err != nil {
			return err
		}
		tr, err := cfg.measureChain(chainpkg.ModeTraditional, w, cfg.Threads)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "YCSB-%c   %14.2f %14.2f %9.2fx\n",
			w, ka.OpsPerSec/1000, tr.OpsPerSec/1000, ka.OpsPerSec/tr.OpsPerSec)
	}
	cfg.printBreakdown()
	return nil
}

// ---------------------------------------------------------------------------
// Chain scaling: batch size × chain length

// chainPersistTotals sums the cumulative device fence and flush counts over
// every registry the cluster exposes — each replica's engine regions plus
// its input/in-flight queue regions. The delta across a run, divided by the
// ops completed, is the per-operation persist cost batching exists to
// amortize.
func chainPersistTotals(cl *chainpkg.Cluster) (fences, flushes uint64) {
	for _, r := range cl.Obs() {
		s := r.Snapshot()
		for name, v := range s.Gauges {
			switch {
			case strings.HasSuffix(name, ".fences"):
				fences += v
			case strings.HasSuffix(name, ".flushes"):
				flushes += v
			}
		}
	}
	return fences, flushes
}

// chainScaleRun drives a put-only load from `clients` concurrent clients
// against a Kamino-Tx-Chain of the given length and batch size, returning
// throughput and the per-op device persist costs of the measured window.
func (c Config) chainScaleRun(replicas, batchOps, clients int) (r Result, fencesPerOp, flushesPerOp float64, err error) {
	cl, err := c.newClusterN(chainpkg.ModeKamino, replicas, batchOps)
	if err != nil {
		return Result{}, 0, 0, err
	}
	defer cl.Close()
	keys := uint64(c.chainKeys())
	ops := c.chainOps()

	// drive runs one concurrent put phase; ofs keeps the phases' key
	// sequences distinct. Keys spread over the key space so admission-
	// control conflicts stay rare and batching is the bottleneck under
	// test.
	var col stats.Collector
	drive := func(n int, ofs uint64, record bool) error {
		var wg sync.WaitGroup
		errCh := make(chan error, clients)
		for th := 0; th < clients; th++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				// Staggered starts keep the clients from marching in
				// lockstep (submit together, ack together), which starves
				// the batcher of arrivals for whole round trips at a time.
				time.Sleep(time.Duration(seed%64) * 37 * time.Microsecond)
				var hist stats.Histogram
				val := make([]byte, c.ValueSize)
				for i := 0; i < n; i++ {
					key := (seed*2654435761 + (ofs+uint64(i))*40503) % keys
					workload.Value(key+seed, val)
					t0 := time.Now()
					if err := cl.Put(key, val); err != nil {
						errCh <- fmt.Errorf("chainscale put key %d: %w", key, err)
						return
					}
					if record {
						hist.Record(time.Since(t0))
					}
				}
				if record {
					col.Report(&hist, uint64(n))
				}
			}(uint64(th + 1))
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return err
		}
		return nil
	}

	// An unmeasured warmup phase keeps cold-start effects (first-touch
	// faults, the preload's backup applier backlog) out of the measured
	// window; the persist totals and the clock are sampled between phases.
	warmup := ops / 5
	if warmup < 10 {
		warmup = 10
	}
	if err := drive(warmup, 1<<32, false); err != nil {
		return Result{}, 0, 0, err
	}
	f0, fl0 := chainPersistTotals(cl)
	start := time.Now()
	if err := drive(ops, 0, true); err != nil {
		return Result{}, 0, 0, err
	}
	elapsed := time.Since(start).Seconds()
	if cerr := cl.Err(); cerr != nil {
		return Result{}, 0, 0, cerr
	}
	f1, fl1 := chainPersistTotals(cl)
	c.collectChain(cl)
	total := float64(col.Ops())
	r = Result{OpsPerSec: total / elapsed, Mean: col.Histogram().Mean()}
	fencesPerOp = float64(f1-f0) / total
	flushesPerOp = float64(fl1-fl0) / total
	return r, fencesPerOp, flushesPerOp, nil
}

// ChainScaling sweeps hop batch size against chain length for Kamino-Tx-
// Chain under a concurrent put-only load. Expected shape: throughput climbs
// steeply from batch 1 (every op pays the full per-hop message and
// queue-persist cost) and saturates once the hop latency is amortized —
// ≥2x by batch 16 — while device fences per op fall toward the floor set by
// each replica's own commit path; longer chains shift the whole curve down
// but batch just as well.
func ChainScaling(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Chain scaling: batch size vs chain length, Kamino-Tx-Chain, put-only",
		"expected shape: >=2x throughput by batch 16; persists per op drop with batch size")
	lengths := []int{3, 5}
	batches := []int{1, 4, 16, 64}
	const clients = 96
	fmt.Fprintf(cfg.Out, "%-9s %6s %12s %9s %12s %12s %12s\n",
		"replicas", "batch", "kops/s", "speedup", "mean (µs)", "fences/op", "flushes/op")
	for _, n := range lengths {
		var base float64
		for _, b := range batches {
			r, fpo, flpo, err := cfg.chainScaleRun(n, b, clients)
			if err != nil {
				return err
			}
			if b == 1 {
				base = r.OpsPerSec
			}
			fmt.Fprintf(cfg.Out, "%-9d %6d %12.1f %8.2fx %12.1f %12.1f %12.1f\n",
				n, b, r.OpsPerSec/1000, r.OpsPerSec/base, us(r.Mean), fpo, flpo)
		}
	}
	cfg.printBreakdown()
	return nil
}
