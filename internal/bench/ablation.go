package bench

import (
	"fmt"

	"kaminotx/internal/workload"
	"kaminotx/kamino"
)

// Ablation dissects the design choices DESIGN.md calls out using the
// engines' mechanism counters rather than wall-clock time, so the results
// are robust to host noise:
//
//  1. critical-path copy accounting per engine (the paper's core claim,
//     stated as bytes instead of seconds);
//  2. the dynamic backup's miss/eviction behaviour across α — why the LRU
//     makes a partial backup behave like a full one for skewed writes;
//  3. dependent-transaction frequency across workloads — why holding locks
//     through the backup sync is cheap in the common case (§3's argument).
func Ablation(cfg Config) error {
	cfg = cfg.WithDefaults()
	// cell runs one YCSB workload as the figures do and returns the pool's
	// counters over it, with its commit count (at least 1) to divide by.
	cell := func(mode kamino.Mode, alpha float64, w byte, threads int) (kamino.Stats, float64, error) {
		_, d, err := cfg.measureYCSB(mode, alpha, w, threads)
		return d, max(float64(d.Commits), 1), err
	}

	header(cfg.Out, "Ablation 1: critical-path vs asynchronous copying (bytes per committed tx)",
		"the mechanism behind every figure: who copies how much, and where")
	fmt.Fprintf(cfg.Out, "%-16s %16s %16s %14s\n", "engine", "crit bytes/tx", "async bytes/tx", "dep waits/tx")
	for _, mode := range []kamino.Mode{kamino.ModeSimple, kamino.ModeDynamic, kamino.ModeUndo, kamino.ModeCoW} {
		d, commits, err := cell(mode, 0.5, 'A', 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%-16s %16.0f %16.0f %14.3f\n", mode,
			float64(d.BytesCopiedCritical)/commits,
			float64(d.BytesCopiedAsync)/commits,
			float64(d.DependentWaits)/commits)
	}

	header(cfg.Out, "Ablation 2: dynamic backup behaviour across alpha (YCSB-A)",
		"misses put one copy in the critical path; the LRU keeps the hot write set resident")
	fmt.Fprintf(cfg.Out, "%-8s %14s %14s %16s\n", "alpha", "misses/tx", "evictions/tx", "crit bytes/tx")
	for _, a := range []float64{0.05, 0.1, 0.3, 0.5, 0.9} {
		d, commits, err := cell(kamino.ModeDynamic, a, 'A', 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%-8.2f %14.3f %14.3f %16.0f\n", a,
			float64(d.BackupMisses)/commits,
			float64(d.BackupEvictions)/commits,
			float64(d.BytesCopiedCritical)/commits)
	}

	header(cfg.Out, "Ablation 3: dependent-transaction frequency by workload (Kamino-Tx, 4 threads)",
		"the paper's §3 claim: only a small fraction of real transactions are dependent")
	fmt.Fprintf(cfg.Out, "%-10s %14s %14s\n", "workload", "dep waits/tx", "commits")
	for _, w := range workload.Workloads {
		d, commits, err := cell(kamino.ModeSimple, 1, w, 4)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "YCSB-%c     %14.4f %14.0f\n", w, float64(d.DependentWaits)/commits, commits)
	}
	cfg.printBreakdown()
	return nil
}
