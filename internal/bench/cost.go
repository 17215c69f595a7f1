package bench

import (
	"fmt"

	"kaminotx/kamino"
)

// Figure 16's cost model. The paper divides measured throughput by the
// total cost of ownership of a machine shaped like its Azure A9 testbed
// (16 cores, 112 GB of memory), computed with the AWS TCO calculator. We
// substitute a linear model: a fixed base cost plus a per-GB memory rate.
// The figure's shape — how throughput-per-dollar ranks undo-logging,
// Kamino-Tx-Dynamic at various α, and Kamino-Tx-Simple — is invariant to
// the exact rates as long as memory has a positive price.
const (
	costBaseDollars  = 2000.0 // machine without the NVM
	costPerGBDollars = 80.0   // NVM per GB
	machineMemGB     = 112.0
)

// costFor returns the machine cost for an engine holding dataGB of data,
// accounting for the extra NVM its backup requires.
func costFor(mode kamino.Mode, alpha float64, dataGB float64) float64 {
	var multiplier float64
	switch mode {
	case kamino.ModeSimple:
		multiplier = 2
	case kamino.ModeDynamic:
		multiplier = 1 + alpha
	default: // undo logging's log space is negligible at steady state
		multiplier = 1
	}
	return costBaseDollars + costPerGBDollars*dataGB*multiplier
}

// Fig16 reproduces Figure 16: normalized operations per second per dollar
// for undo-logging, Kamino-Tx-Dynamic at α = 10..90%, and
// Kamino-Tx-Simple, on a write-heavy (YCSB-A) and a read-only (YCSB-C)
// workload. Expected shape: Simple wins decisively for write-heavy
// workloads (the paper saw up to 8.6×); for read-heavy workloads the
// cheaper partial backups close the gap.
func Fig16(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Figure 16: normalized ops/sec per dollar",
		"paper shape: Kamino-Tx-Simple up to 8.6x for write-heavy; Dynamic competitive for read-heavy")
	dataGB := float64(cfg.Keys) * float64(cfg.ValueSize) / (1 << 30)
	if dataGB <= 0 {
		dataGB = 0.1
	}
	// Scale to the paper's machine: assume the heap fills the machine.
	scale := machineMemGB / 2 // leave room for a full backup

	type variant struct {
		label string
		mode  kamino.Mode
		alpha float64
	}
	variants := []variant{
		{"undo-logging", kamino.ModeUndo, 0},
		{"dynamic-10", kamino.ModeDynamic, 0.1},
		{"dynamic-30", kamino.ModeDynamic, 0.3},
		{"dynamic-50", kamino.ModeDynamic, 0.5},
		{"dynamic-70", kamino.ModeDynamic, 0.7},
		{"dynamic-90", kamino.ModeDynamic, 0.9},
		{"full-copy", kamino.ModeSimple, 1},
	}
	workloads := []struct {
		name string
		w    byte
	}{{"write-heavy (YCSB-A)", 'A'}, {"read-only (YCSB-C)", 'C'}}

	for _, wl := range workloads {
		fmt.Fprintf(cfg.Out, "\n%s\n%-14s %14s %12s %12s\n", wl.name, "variant", "ops/sec", "cost ($)", "norm ops/$")
		var base float64
		for i, v := range variants {
			r, err := cfg.measureYCSB(v.mode, v.alpha, wl.w, cfg.Threads)
			if err != nil {
				return err
			}
			cost := costFor(v.mode, v.alpha, scale)
			perDollar := r.OpsPerSec / cost
			if i == 0 {
				base = perDollar
			}
			fmt.Fprintf(cfg.Out, "%-14s %14.0f %12.0f %12.2f\n",
				v.label, r.OpsPerSec, cost, perDollar/base)
		}
	}
	return nil
}
