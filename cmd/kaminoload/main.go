// Command kaminoload is an open-loop load generator for kaminod: it
// offers requests at a FIXED arrival rate regardless of how fast the
// server answers, and measures each operation's latency from its
// scheduled arrival time — so server stalls show up in the latency
// distribution instead of being hidden by a slowed-down client
// (coordinated omission). Sweeping -rates produces a latency-under-load
// curve; -rate 0 runs closed-loop at -window outstanding per connection
// and measures capacity instead.
//
//	kaminoload -addr localhost:7070 -preload -rates 5000,10000,20000
//	kaminoload -addr localhost:7070 -rate 10000 -duration 10s -mix b
//	kaminoload -addr localhost:7070 -verify -keys 2000 -value 256
//
// With -verify, keys 0..keys-1 are read back and checked against the
// deterministic preload payload before any sweep; a missing key or a
// mismatched value fails the run (the recovery smoke's
// zero-lost-acked-writes gate after kill -9). A -verify invocation with
// no explicit rates runs the gate alone and exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"kaminotx/internal/loadgen"
	"kaminotx/internal/stats"
	"kaminotx/internal/transport"
	"kaminotx/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:7070", "kaminod address")
		conns     = flag.Int("conns", 4, "client connections")
		rate      = flag.Float64("rate", 0, "total offered ops/sec (0 = closed loop at -window)")
		rates     = flag.String("rates", "", "comma-separated ops/sec sweep (overrides -rate)")
		duration  = flag.Duration("duration", 2*time.Second, "offered-load duration per rate")
		keys      = flag.Uint64("keys", 10_000, "keyspace size reads and updates draw from")
		valueSize = flag.Int("value", 100, "put payload bytes")
		mixFlag   = flag.String("mix", "a", "YCSB mix letter (a, b, c, d, f)")
		window    = flag.Int("window", 256, "max outstanding requests per connection")
		preload   = flag.Bool("preload", false, "fill keys 0..keys-1 before measuring")
		verify    = flag.Bool("verify", false, "read keys 0..keys-1 back and fail on any missing or mismatched payload (zero-lost-acked-writes gate)")
		seed      = flag.Int64("seed", 1, "workload generator seed")
		breakdown = flag.Bool("breakdown", false, "request per-phase latency attribution from the server and print where tail time went")
	)
	flag.Parse()
	mix, err := workload.MixFor(strings.ToUpper(*mixFlag)[0])
	if err != nil {
		fatal(err)
	}
	sweep, err := parseRates(*rates, *rate)
	if err != nil {
		fatal(err)
	}
	if *preload {
		fmt.Printf("preloading %d keys of %dB over %d connections...\n", *keys, *valueSize, *conns)
		start := time.Now()
		if err := loadgen.Preload(*addr, *keys, *valueSize, *conns); err != nil {
			fatal(fmt.Errorf("preload: %w", err))
		}
		fmt.Printf("preload done in %s\n", time.Since(start).Round(time.Millisecond))
	}
	if *verify {
		fmt.Printf("verifying %d keys of %dB over %d connections...\n", *keys, *valueSize, *conns)
		start := time.Now()
		n, err := loadgen.Verify(*addr, *keys, *valueSize, *conns)
		if err != nil {
			fatal(fmt.Errorf("verify: %w", err))
		}
		fmt.Printf("verified %d keys in %s: no acked write lost\n", n, time.Since(start).Round(time.Millisecond))
		if *rates == "" && *rate == 0 {
			return // gate-only invocation (no explicit rates): skip the sweep
		}
	}

	fmt.Printf("%-10s %10s %10s %9s %9s %9s %9s %7s %7s\n",
		"offered/s", "issued", "achieved", "p50", "p90", "p99", "max", "shed", "errors")
	for _, r := range sweep {
		res, err := loadgen.Run(loadgen.Config{
			Addr:      *addr,
			Conns:     *conns,
			Rate:      r,
			Window:    *window,
			Duration:  *duration,
			Keys:      *keys,
			ValueSize: *valueSize,
			Mix:       mix,
			Seed:      *seed,
			Breakdown: *breakdown,
		})
		if err != nil {
			fatal(err)
		}
		label := fmt.Sprintf("%.0f", r)
		if r == 0 {
			label = fmt.Sprintf("closed/%d", *window)
		}
		fmt.Printf("%-10s %10d %10.0f %9s %9s %9s %9s %7d %7d\n",
			label, res.Issued, res.Throughput,
			res.Hist.Percentile(50).Round(time.Microsecond),
			res.Hist.Percentile(90).Round(time.Microsecond),
			res.Hist.Percentile(99).Round(time.Microsecond),
			res.Hist.Max().Round(time.Microsecond),
			res.Busy, res.Errors)
		if *breakdown {
			printAttribution(res)
		}
	}
}

// printAttribution reports where one rate's time went — the server's
// per-phase split plus the network+queue remainder it cannot see.
func printAttribution(res *loadgen.Result) {
	type comp struct {
		name string
		h    *stats.Histogram
	}
	comps := []comp{{"net_queue", res.NetQueue}}
	for _, ph := range []transport.KVPhase{transport.KVPhaseAdmissionWait,
		transport.KVPhaseBatchWait, transport.KVPhaseEngineTxn, transport.KVPhaseOrderWait} {
		comps = append(comps, comp{ph.String(), res.Phase[ph]})
	}
	fmt.Printf("  %-14s %10s %10s %10s\n", "component", "p50", "p99", "p999")
	for _, cp := range comps {
		if cp.h == nil || cp.h.Count() == 0 {
			continue
		}
		fmt.Printf("  %-14s %10s %10s %10s\n", cp.name,
			cp.h.Percentile(50).Round(time.Microsecond),
			cp.h.Percentile(99).Round(time.Microsecond),
			cp.h.Percentile(99.9).Round(time.Microsecond))
	}
}

// parseRates resolves the sweep: -rates wins, else the single -rate.
func parseRates(rates string, rate float64) ([]float64, error) {
	if rates == "" {
		return []float64{rate}, nil
	}
	var out []float64
	for _, s := range strings.Split(rates, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		r, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %w", s, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-rates given but empty")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kaminoload:", err)
	os.Exit(1)
}
