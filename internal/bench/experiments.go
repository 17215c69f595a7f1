package bench

import (
	"fmt"
	"time"

	"kaminotx/internal/tpcc"
	"kaminotx/internal/workload"
	"kaminotx/kamino"
)

// Fig1 reproduces Figure 1: the cost of logging. The paper ran MySQL with
// InnoDB logging on and off; here the same comparison runs on our KV store
// — the unsafe no-logging engine against NVML-style undo logging — for the
// YCSB workloads and TPC-C, 4 client threads. Expected shape: 50–250%
// overhead on write-heavy workloads, little on read-mostly B–D.
func Fig1(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Figure 1: throughput with and without logging (K ops/sec)",
		"paper shape: undo logging costs 50-250% on write-heavy workloads, ~0% on read-heavy")
	fmt.Fprintf(cfg.Out, "%-10s %14s %14s %10s\n", "workload", "no-logging", "undo-logging", "overhead")
	for _, w := range workload.Workloads {
		no, err := cfg.measureYCSB(kamino.ModeNoLog, 0, w, cfg.Threads)
		if err != nil {
			return err
		}
		un, err := cfg.measureYCSB(kamino.ModeUndo, 0, w, cfg.Threads)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "YCSB-%c     %14.1f %14.1f %9.0f%%\n",
			w, no.OpsPerSec/1000, un.OpsPerSec/1000, overheadPct(no.OpsPerSec, un.OpsPerSec))
	}
	no, err := cfg.measureTPCC(kamino.ModeNoLog)
	if err != nil {
		return err
	}
	un, err := cfg.measureTPCC(kamino.ModeUndo)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "TPC-C      %14.1f %14.1f %9.0f%%\n",
		no.OpsPerSec/1000, un.OpsPerSec/1000, overheadPct(no.OpsPerSec, un.OpsPerSec))
	cfg.printBreakdown()
	return nil
}

func overheadPct(fast, slow float64) float64 {
	if slow <= 0 {
		return 0
	}
	return (fast/slow - 1) * 100
}

// measureTPCC runs the TPC-C-lite mix with c.Threads workers.
func (c Config) measureTPCC(mode kamino.Mode) (Result, error) {
	pool, err := kamino.Create(kamino.Options{
		Mode:                mode,
		HeapSize:            256 << 20,
		LogSlots:            256,
		LogEntriesPerSlot:   128,
		LogDataBytesPerSlot: 1 << 20,
		ApplierWorkers:      2,
		FlushLatency:        c.FlushLatency,
		FenceLatency:        c.FenceLatency,
	})
	if err != nil {
		return Result{}, err
	}
	defer pool.Close()
	// Paper-like scale: enough warehouses/items that dependent
	// transactions stay rare, as on the full TPC-C schema.
	db, err := tpcc.Load(pool, tpcc.Config{Warehouses: 4, Items: 5000, CustomersPerD: 200})
	if err != nil {
		return Result{}, err
	}
	n := c.OpsPerThread / 10 // TPC-C transactions are heavier
	if n == 0 {
		n = 100
	}
	r, err := closedLoop(c.Threads, n, func(th int) func(int) error {
		w := tpcc.NewWorker(db, int64(th+1))
		return func(int) error { return w.RunOne() }
	})
	if err != nil {
		return Result{}, err
	}
	c.collect(pool)
	return r, nil
}

// Fig12 reproduces Figure 12: YCSB throughput, Kamino-Tx-Simple vs
// undo-logging, 2/4/8 threads. Expected shape: Kamino-Tx wins on every
// workload with writes (up to ~9.5x in the paper), ties on read-only C.
func Fig12(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Figure 12: YCSB throughput, Kamino-Tx-Simple vs undo-logging (M ops/sec)",
		"paper shape: Kamino-Tx up to 9.5x on write-heavy workloads; parity on read-only C")
	threadsList := []int{2, 4, 8}
	fmt.Fprintf(cfg.Out, "%-8s", "workload")
	for _, th := range threadsList {
		fmt.Fprintf(cfg.Out, " %13s %13s %8s", fmt.Sprintf("kamino(%d)", th), fmt.Sprintf("undo(%d)", th), "speedup")
	}
	fmt.Fprintln(cfg.Out)
	for _, w := range workload.Workloads {
		fmt.Fprintf(cfg.Out, "YCSB-%c  ", w)
		for _, th := range threadsList {
			ka, err := cfg.measureYCSB(kamino.ModeSimple, 1, w, th)
			if err != nil {
				return err
			}
			un, err := cfg.measureYCSB(kamino.ModeUndo, 0, w, th)
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, " %13.3f %13.3f %7.2fx",
				ka.OpsPerSec/1e6, un.OpsPerSec/1e6, ka.OpsPerSec/un.OpsPerSec)
		}
		fmt.Fprintln(cfg.Out)
	}
	cfg.printBreakdown()
	return nil
}

// Fig13 reproduces Figure 13: YCSB and TPC-C average latency, Kamino-Tx
// vs undo-logging. Expected shape: Kamino-Tx up to 2.33x lower latency on
// write-heavy workloads, parity on read-only C.
func Fig13(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Figure 13: average operation latency (µs), Kamino-Tx vs undo-logging",
		"paper shape: Kamino-Tx up to 2.33x faster on writes; identical on read-only C")
	fmt.Fprintf(cfg.Out, "%-10s %12s %12s %10s\n", "workload", "kamino", "undo", "ratio")
	for _, w := range workload.Workloads {
		ka, err := cfg.measureYCSB(kamino.ModeSimple, 1, w, 1)
		if err != nil {
			return err
		}
		un, err := cfg.measureYCSB(kamino.ModeUndo, 0, w, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "YCSB-%c     %12.2f %12.2f %9.2fx\n",
			w, us(ka.Mean), us(un.Mean), float64(un.Mean)/float64(ka.Mean))
	}
	// Latency rows are single-threaded, TPC-C included.
	lcfg := cfg
	lcfg.Threads = 1
	ka, err := lcfg.measureTPCC(kamino.ModeSimple)
	if err != nil {
		return err
	}
	un, err := lcfg.measureTPCC(kamino.ModeUndo)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "TPC-C      %12.2f %12.2f %9.2fx\n",
		us(ka.Mean), us(un.Mean), float64(un.Mean)/float64(ka.Mean))
	cfg.printBreakdown()
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Fig14 and Fig15 reproduce the dynamic-backup sweep (Figures 14/15):
// latency and throughput with partial backups of 10%..90% of the data size
// against the full copy. Expected shape: smaller α costs latency on
// write-heavy workloads (more backup misses); ~50% storage costs only a
// few percent throughput on read-heavy workloads.
func Fig14(cfg Config) error { return dynamicSweep(cfg, true) }

// Fig15 is the throughput half of the sweep.
func Fig15(cfg Config) error { return dynamicSweep(cfg, false) }

func dynamicSweep(cfg Config, latency bool) error {
	cfg = cfg.WithDefaults()
	if latency {
		header(cfg.Out, "Figure 14: YCSB latency with partial backups (µs)",
			"paper shape: latency rises as alpha shrinks on write-heavy workloads; full copy is the floor")
	} else {
		header(cfg.Out, "Figure 15: YCSB throughput with partial backups (M ops/sec)",
			"paper shape: alpha=0.5 within ~5% of full copy on read-heavy workloads")
	}
	alphas := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	fmt.Fprintf(cfg.Out, "%-8s", "workload")
	for _, a := range alphas {
		fmt.Fprintf(cfg.Out, " %9.0f%%", a*100)
	}
	fmt.Fprintf(cfg.Out, " %10s\n", "full-copy")
	sweep := []byte{'A', 'B', 'D', 'F'}
	for _, w := range sweep {
		fmt.Fprintf(cfg.Out, "YCSB-%c  ", w)
		for _, a := range alphas {
			r, err := cfg.measureYCSB(kamino.ModeDynamic, a, w, cfg.Threads)
			if err != nil {
				return err
			}
			if latency {
				fmt.Fprintf(cfg.Out, " %10.2f", us(r.Mean))
			} else {
				fmt.Fprintf(cfg.Out, " %10.3f", r.OpsPerSec/1e6)
			}
		}
		r, err := cfg.measureYCSB(kamino.ModeSimple, 1, w, cfg.Threads)
		if err != nil {
			return err
		}
		if latency {
			fmt.Fprintf(cfg.Out, " %10.2f\n", us(r.Mean))
		} else {
			fmt.Fprintf(cfg.Out, " %10.3f\n", r.OpsPerSec/1e6)
		}
	}
	cfg.printBreakdown()
	return nil
}
