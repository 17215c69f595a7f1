// Command kaminobench regenerates the paper's evaluation tables and
// figures (see DESIGN.md for the experiment index). It prints tables for
// reading; numbers are compared, and gains claimed, only with the gated
// benchmark under benchmark/ (benchmark/README.md).
//
// Usage:
//
//	kaminobench -experiment fig12 -keys 100000 -ops 20000 -threads 4
//	kaminobench -experiment all
//	kaminobench -experiment fig12 -trace-out fig12.trace.json -audit
//
// Experiments: fig1, fig12, fig13, fig14, fig15, fig16, fig17, fig18,
// table1, dependent, worstcase, ablation, chainscale, or all; -experiment
// takes one name or a comma-separated list, and an unknown name is an
// error before anything runs.
//
// With -trace-out, every pool the experiments create records its NVM
// device and transaction lifecycle events into a ring buffer, exported at
// exit as Chrome trace_event JSON (open in chrome://tracing or Perfetto)
// or, when the filename ends in .jsonl, as one JSON event per line. With
// -audit, every event is checked against the Kamino-Tx safety invariants
// as it is recorded (the online auditor: nothing is lost to ring
// wrap-around); each violation is printed the moment it happens and fails
// the run. The process serves nothing: what an experiment measured is in
// its printed tables and the phase breakdown after them.
//
// With -profile-dir DIR, each experiment writes <experiment>.cpu.pprof
// and <experiment>.heap.pprof into DIR.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rpprof "runtime/pprof"
	"strings"
	"time"

	"kaminotx/internal/bench"
	"kaminotx/internal/trace"
)

// experiment is one entry of the index: a table or figure of the paper's
// evaluation and the harness function that prints it.
type experiment struct {
	name string
	desc string
	run  func(bench.Config) error
}

var experiments = []experiment{
	{"fig1", "logging overhead (YCSB + TPC-C, no-logging vs undo)", bench.Fig1},
	{"fig12", "YCSB throughput, Kamino-Tx vs undo, 2/4/8 threads", bench.Fig12},
	{"fig13", "YCSB + TPC-C latency, Kamino-Tx vs undo", bench.Fig13},
	{"fig14", "latency with partial backups (alpha sweep)", bench.Fig14},
	{"fig15", "throughput with partial backups (alpha sweep)", bench.Fig15},
	{"fig16", "normalized ops/sec per dollar", bench.Fig16},
	{"fig17", "chain latency, Kamino-Tx-Chain vs traditional", bench.Fig17},
	{"fig18", "chain throughput, Kamino-Tx-Chain vs traditional", bench.Fig18},
	{"table1", "replication schemes: servers/storage/latency", bench.Table1},
	{"dependent", "dependent transactions (uniform vs bursty)", bench.Dependent},
	{"worstcase", "repeated same-object updates by size", bench.WorstCase},
	{"ablation", "design-choice ablations via mechanism counters", bench.Ablation},
	{"chainscale", "chain throughput vs hop batch size and chain length", bench.ChainScaling},
}

// resolve turns the -experiment argument — a name, a comma-separated list
// of names, or "all" — into the experiments to run, in index order. Names
// are matched without regard to case or surrounding spaces. Any name not in
// the index is an error: a list that silently dropped a misspelt entry is
// how a CI job loses an experiment.
func resolve(arg string) ([]experiment, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(arg, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		known := name == "all"
		for _, e := range experiments {
			known = known || e.name == name
		}
		if !known {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		want[name] = true
	}
	var out []experiment
	for _, e := range experiments {
		if want["all"] || want[e.name] {
			out = append(out, e)
		}
	}
	return out, nil
}

// printIndex lists the experiments, one per line: -list, and the answer to
// an unknown name.
func printIndex(w io.Writer) {
	for _, e := range experiments {
		fmt.Fprintf(w, "  %-10s %s\n", e.name, e.desc)
	}
}

// flags holds kaminobench's command line. Every kaminobench flag the
// repository's Markdown names is one defineFlags registers (main_test.go
// checks).
type flags struct {
	bench.Config // the experiment settings

	names, profileDir, traceOut string
	traceBuf                    int
	audit, list                 bool
}

// defineFlags registers every kaminobench flag on fs.
func defineFlags(fs *flag.FlagSet) *flags {
	f := new(flags)
	fs.StringVar(&f.names, "experiment", "all", "experiment id (or 'all', or comma-separated list)")
	fs.IntVar(&f.Keys, "keys", 50_000, "records preloaded into the store")
	fs.IntVar(&f.ValueSize, "value", 1024, "value size in bytes")
	fs.IntVar(&f.OpsPerThread, "ops", 10_000, "operations per worker thread")
	fs.IntVar(&f.Threads, "threads", 4, "worker threads (non-sweep experiments)")
	fs.DurationVar(&f.FlushLatency, "flush", 0, "modeled per-line flush latency (0 = harness default)")
	fs.DurationVar(&f.FenceLatency, "fence", 0, "modeled fence latency (0 = harness default)")
	fs.IntVar(&f.ChainBatchOps, "batch-ops", 0, "chain hop batch size in ops (0/1 = batches of one; chainscale sweeps its own sizes)")
	fs.StringVar(&f.profileDir, "profile-dir", "", "write per-experiment CPU and heap profiles into this directory")
	fs.StringVar(&f.traceOut, "trace-out", "", "record events and write them here at exit (.json = Chrome trace_event, .jsonl = JSON lines)")
	fs.IntVar(&f.traceBuf, "trace-buf", 0, "trace ring-buffer capacity in events (0 = default)")
	fs.BoolVar(&f.audit, "audit", false, "audit events against the Kamino-Tx safety invariants as they are recorded, reporting violations as they happen (implies recording)")
	fs.BoolVar(&f.list, "list", false, "list experiments and exit")
	return f
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()
	if f.list {
		printIndex(os.Stdout)
		return
	}
	selected, err := resolve(f.names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kaminobench: %v; the experiments are:\n", err)
		printIndex(os.Stderr)
		os.Exit(1)
	}

	cfg := f.Config
	cfg.Out = os.Stdout
	var recorder *trace.Recorder
	if f.traceOut != "" || f.audit {
		recorder = trace.NewRecorder(f.traceBuf)
		cfg.Trace = recorder
	}
	var auditor *trace.OnlineAuditor
	if f.audit {
		auditor = trace.AttachOnline(recorder, trace.OnlineOptions{
			OnViolation: func(v trace.Violation) {
				fmt.Fprintf(os.Stderr, "audit: %s\n", v)
			},
		})
	}
	fmt.Printf("kaminobench: keys=%d value=%dB ops/thread=%d threads=%d cpus=%d\n",
		f.Keys, f.ValueSize, f.OpsPerThread, f.Threads, runtime.NumCPU())
	if runtime.NumCPU() == 1 {
		fmt.Println("note: single-CPU host — Kamino-Tx's asynchronous backup work shares the core" +
			" with transaction threads, which compresses throughput gaps relative to the paper's" +
			" 16-core testbed; latency comparisons remain meaningful.")
	}

	for _, e := range selected {
		start := time.Now()
		if err := runOne(cfg, e, f.profileDir); err != nil {
			fmt.Fprintf(os.Stderr, "kaminobench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", e.name, time.Since(start).Round(time.Millisecond))
	}

	auditFailed := false
	if auditor != nil {
		auditor.Close()
		st := auditor.Stats()
		if st.Violations == 0 {
			fmt.Printf("audit: %d events audited, all safety invariants hold\n", st.Events)
		} else {
			fmt.Fprintf(os.Stderr, "audit: %d violation(s) in %d events\n", st.Violations, st.Events)
			auditFailed = true
		}
	}
	if f.traceOut != "" {
		if err := finishTrace(recorder, f.traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "kaminobench: %v\n", err)
			os.Exit(1)
		}
	}
	if auditFailed {
		os.Exit(1)
	}
}

// runOne executes one experiment, optionally capturing its CPU and heap
// profiles (-profile-dir).
func runOne(cfg bench.Config, e experiment, profileDir string) error {
	if profileDir != "" {
		if err := os.MkdirAll(profileDir, 0o755); err != nil {
			return fmt.Errorf("profile dir: %w", err)
		}
		f, err := os.Create(filepath.Join(profileDir, e.name+".cpu.pprof"))
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		if err := rpprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer func() {
			rpprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "kaminobench: cpu profile: %v\n", cerr)
			}
			if err := writeHeapProfile(filepath.Join(profileDir, e.name+".heap.pprof")); err != nil {
				fmt.Fprintf(os.Stderr, "kaminobench: heap profile: %v\n", err)
			}
		}()
	}
	return e.run(cfg)
}

// writeHeapProfile snapshots the post-experiment live heap (after a GC, so
// the profile shows retained memory, not garbage).
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = rpprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// finishTrace exports the recorded events (-trace-out).
func finishTrace(rec *trace.Recorder, out string) error {
	events := rec.Events()
	if dropped := rec.Dropped(); dropped > 0 {
		fmt.Printf("trace: ring wrapped, oldest %d of %d events dropped (raise -trace-buf)\n",
			dropped, rec.Total())
	}
	f, err := os.Create(out)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if strings.HasSuffix(out, ".jsonl") {
		err = trace.WriteJSONL(f, events)
	} else {
		err = trace.WriteChrome(f, events)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: writing %s: %w", out, err)
	}
	fmt.Printf("trace: %d events written to %s\n", len(events), out)
	return nil
}
