// Command kaminobench regenerates the paper's evaluation tables and
// figures (see DESIGN.md for the experiment index).
//
// Usage:
//
//	kaminobench -experiment fig12 -keys 100000 -ops 20000 -threads 4
//	kaminobench -experiment all
//	kaminobench -experiment fig12 -trace-out fig12.trace.json -audit
//
// Experiments: fig1, fig12, fig13, fig14, fig15, fig16, fig17, fig18,
// table1, dependent, worstcase, ablation, chainscale, chaos, all.
//
// With -trace-out, every pool the experiments create records its NVM
// device and transaction lifecycle events into a ring buffer, exported at
// exit as Chrome trace_event JSON (open in chrome://tracing or Perfetto)
// or, when the filename ends in .jsonl, as one JSON event per line. With
// -audit, the recorded events are checked against the Kamino-Tx safety
// invariants and violations fail the run; -audit-live runs the same
// checks incrementally while the experiments execute, printing each
// violation the moment it happens. With -metrics-addr, the live
// observability hub is served at /, Prometheus text exposition at
// /metrics, the time-series ring at /series, the trace ring at /trace,
// pprof profiles at /debug/pprof/, liveness and readiness at /healthz
// and /readyz, and structured introspection at /debug/chain,
// /debug/locks, /debug/queues and /debug/trace/tail.
//
// With -blackbox-dir DIR, chaos-experiment replica pools reserve an NVM
// flight-recorder region: crashes persist the trace tail, obs snapshot
// and chain debug state into the image, recovery retrieves the record,
// and the harness copies it into DIR as JSON (decode with
// tools/blackbox). A panic during any experiment also dumps a
// process-level flight record into DIR before re-panicking.
//
// With -bench-out DIR, every experiment additionally writes a
// machine-readable BENCH_<experiment>.json artifact into DIR — config,
// measured cells with latency percentiles, per-engine observability
// snapshots, and the sampled time series — for tools/benchdiff to compare
// across runs. With -profile-dir DIR, each experiment writes
// <experiment>.cpu.pprof and <experiment>.heap.pprof into DIR.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rpprof "runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"kaminotx/internal/bench"
	"kaminotx/internal/obs"
	"kaminotx/internal/obs/series"
	"kaminotx/internal/trace"
)

var experiments = []struct {
	name string
	desc string
	run  func(bench.Config) error
}{
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
	{"chaos", "kill-rebuild-rejoin schedules under live chain load", bench.Chaos},
	{"serve", "network service: pipelining, latency under load, drain audit", bench.Serve},
	{"recovery", "restart cost: TTFT and time-to-full-throughput vs heap size and dirty fraction", bench.Recovery},
}

func main() {
	var (
		experiment  = flag.String("experiment", "all", "experiment id (or 'all', or comma-separated list)")
		keys        = flag.Int("keys", 50_000, "records preloaded into the store")
		valueSize   = flag.Int("value", 1024, "value size in bytes")
		ops         = flag.Int("ops", 10_000, "operations per worker thread")
		threads     = flag.Int("threads", 4, "worker threads (non-sweep experiments)")
		flush       = flag.Duration("flush", 0, "modeled per-line flush latency (0 = harness default)")
		fence       = flag.Duration("fence", 0, "modeled fence latency (0 = harness default)")
		batchOps    = flag.Int("batch-ops", 0, "chain hop batch size in ops (0/1 = unbatched; chainscale sweeps its own sizes)")
		batchBytes  = flag.Int("batch-bytes", 0, "chain hop batch payload cap in bytes (0 = default 256 KiB)")
		batchDelay  = flag.Duration("batch-delay", 0, "how long the chain head waits to fill a batch (0 = never wait)")
		groupCommit = flag.Bool("group-commit", false, "group-commit intent-log persists inside each chain replica's engine")
		metricsAddr = flag.String("metrics-addr", "", "serve live observability JSON on this HTTP address (e.g. :8089)")
		benchOut    = flag.String("bench-out", "", "write BENCH_<experiment>.json artifacts into this directory")
		profileDir  = flag.String("profile-dir", "", "write per-experiment CPU and heap profiles into this directory")
		traceOut    = flag.String("trace-out", "", "record events and write them here at exit (.json = Chrome trace_event, .jsonl = JSON lines)")
		traceBuf    = flag.Int("trace-buf", 0, "trace ring-buffer capacity in events (0 = default)")
		audit       = flag.Bool("audit", false, "audit recorded events against the Kamino-Tx safety invariants (implies recording)")
		auditLive   = flag.Bool("audit-live", false, "audit events online while experiments run, reporting violations as they happen (implies recording)")
		blackboxDir = flag.String("blackbox-dir", "", "enable the NVM flight recorder on chaos replica pools and copy retrieved records into this directory (implies recording)")
		list        = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()
	// Benchmarks allocate large long-lived regions; keep the collector
	// from churning them.
	debug.SetGCPercent(400)

	if *list {
		for _, e := range experiments {
			fmt.Printf("  %-10s %s\n", e.name, e.desc)
		}
		return
	}

	cfg := bench.Config{
		Keys:             *keys,
		ValueSize:        *valueSize,
		OpsPerThread:     *ops,
		Threads:          *threads,
		FlushLatency:     *flush,
		FenceLatency:     *fence,
		ChainBatchOps:    *batchOps,
		ChainBatchBytes:  *batchBytes,
		ChainBatchDelay:  *batchDelay,
		ChainGroupCommit: *groupCommit,
		Out:              os.Stdout,
	}
	var recorder *trace.Recorder
	if *traceOut != "" || *audit || *auditLive || *blackboxDir != "" {
		recorder = trace.NewRecorder(*traceBuf)
		cfg.Trace = recorder
	}
	if *blackboxDir != "" {
		cfg.Blackbox = true
		cfg.FlightDir = *blackboxDir
	}
	var auditor *trace.OnlineAuditor
	var auditReg *obs.Registry
	switch {
	case *auditLive:
		auditReg = obs.New("audit")
		auditor = trace.AttachOnline(recorder, trace.OnlineOptions{
			Obs: auditReg,
			OnViolation: func(v trace.Violation) {
				fmt.Fprintf(os.Stderr, "audit-live: %s\n", v)
			},
		})
		cfg.AuditMode = "online"
		cfg.AuditViolations = func() int { return int(auditor.Stats().Violations) }
	case *audit:
		cfg.AuditMode = "post"
	}
	var srv *http.Server
	var sampler *series.Sampler
	if *metricsAddr != "" || *benchOut != "" {
		// One process-wide hub and sampler: the harness slices each
		// experiment's window out of the ring for its artifact, while the
		// HTTP endpoints expose the whole run live.
		hub := obs.NewHub()
		cfg.Metrics = hub
		sampler = series.New(hub, series.Options{})
		cfg.Series = sampler
		sampler.Start()
		if auditReg != nil {
			hub.Set(auditReg.Name(), auditReg)
		}
	}
	startTime := time.Now()
	var ready atomic.Bool
	if *metricsAddr != "" {
		hub := cfg.Metrics
		dbg := obs.NewDebugHub()
		cfg.Debug = dbg
		mux := http.NewServeMux()
		mux.Handle("/", hub)
		mux.Handle("/metrics", hub.PromHandler())
		mux.Handle("/series", sampler)
		if recorder != nil {
			mux.Handle("/trace", trace.Handler(recorder))
			mux.Handle("/debug/trace/tail", traceTailHandler(recorder))
		}
		mux.Handle("/healthz", obs.HealthHandler(startTime))
		mux.Handle("/readyz", obs.ReadyHandler(ready.Load))
		mux.Handle("/debug/chain", dbg.Handler("chain"))
		mux.Handle("/debug/locks", dbg.Handler("locks"))
		mux.Handle("/debug/queues", dbg.Handler("queues"))
		mux.Handle("/debug/requests", dbg.Handler("requests"))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// Listen synchronously so a bad address or occupied port is
		// reported instead of silently racing the benchmark.
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kaminobench: metrics listener: %v\n", err)
			os.Exit(1)
		}
		srv = &http.Server{Handler: mux}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "kaminobench: metrics server: %v\n", err)
			}
		}()
		display := *metricsAddr
		if strings.HasPrefix(display, ":") {
			display = "localhost" + display
		}
		fmt.Printf("metrics: live registry snapshots at http://%s/ (JSON; ?label=substr filters),"+
			" Prometheus text at /metrics, time series at /series, trace ring at /trace,"+
			" pprof at /debug/pprof/, health at /healthz and /readyz,"+
			" introspection at /debug/{chain,locks,queues,requests,trace/tail}\n", display)
	}
	fmt.Printf("kaminobench: keys=%d value=%dB ops/thread=%d threads=%d cpus=%d\n",
		*keys, *valueSize, *ops, *threads, runtime.NumCPU())
	if runtime.NumCPU() == 1 {
		fmt.Println("note: single-CPU host — Kamino-Tx's asynchronous backup work shares the core" +
			" with transaction threads, which compresses throughput gaps relative to the paper's" +
			" 16-core testbed; latency comparisons remain meaningful.")
	}

	want := map[string]bool{}
	if *experiment == "all" {
		for _, e := range experiments {
			want[e.name] = true
		}
	} else {
		for _, name := range strings.Split(*experiment, ",") {
			want[strings.TrimSpace(strings.ToLower(name))] = true
		}
	}

	ready.Store(true)
	ran := 0
	for _, e := range experiments {
		if !want[e.name] {
			continue
		}
		ran++
		start := time.Now()
		if err := runOne(cfg, e.name, e.run, *benchOut, *profileDir); err != nil {
			fmt.Fprintf(os.Stderr, "kaminobench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "kaminobench: unknown experiment %q (use -list)\n", *experiment)
		os.Exit(1)
	}

	auditFailed := false
	if auditor != nil {
		violations := auditor.Close()
		st := auditor.Stats()
		if len(violations) == 0 {
			fmt.Printf("audit-live: %d events audited online, all safety invariants hold\n", st.Events)
		} else {
			fmt.Fprintf(os.Stderr, "audit-live: %d violation(s) in %d events\n", st.Violations, st.Events)
			auditFailed = true
		}
	}
	if sampler != nil {
		sampler.Stop()
	}
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "kaminobench: metrics shutdown: %v\n", err)
		}
		cancel()
	}
	if recorder != nil {
		if err := finishTrace(recorder, *traceOut, *audit); err != nil {
			fmt.Fprintf(os.Stderr, "kaminobench: %v\n", err)
			os.Exit(1)
		}
	}
	if auditFailed {
		os.Exit(1)
	}
}

// traceTailHandler serves the most recent events of the trace ring as
// JSON (?n=COUNT bounds the tail, default 256) — a cheap live peek at
// what the experiment is doing right now, unlike /trace which exports
// the entire retained ring.
func traceTailHandler(rec *trace.Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n := 256
		if s := req.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec.Tail(n)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// dumpPanicRecord writes a process-level flight record (trace tail, hub
// snapshots, panic value and stack) into the blackbox directory so a
// crashed experiment leaves the same post-mortem evidence a replica
// crash does. Best-effort: the panic is re-raised by the caller either
// way.
func dumpPanicRecord(cfg bench.Config, name string, r any) {
	if cfg.FlightDir == "" {
		return
	}
	fr := trace.BuildFlightRecord(cfg.Trace, "panic", 4096)
	fr.Actor = "kaminobench/" + name
	fr.Note = fmt.Sprintf("%v\n\n%s", r, debug.Stack())
	if cfg.Metrics != nil {
		fr.Obs = cfg.Metrics.Snapshots()
	}
	raw, err := fr.Encode()
	if err != nil {
		return
	}
	if err := os.MkdirAll(cfg.FlightDir, 0o755); err != nil {
		return
	}
	path := filepath.Join(cfg.FlightDir, "panic-"+name+".json")
	if os.WriteFile(path, raw, 0o644) == nil {
		fmt.Fprintf(os.Stderr, "kaminobench: panic flight record: %s\n", path)
	}
}

// runOne executes one experiment, optionally capturing its BENCH_*.json
// artifact (-bench-out) and CPU/heap profiles (-profile-dir).
func runOne(cfg bench.Config, name string, run func(bench.Config) error, benchOut, profileDir string) error {
	defer func() {
		if r := recover(); r != nil {
			dumpPanicRecord(cfg, name, r)
			panic(r)
		}
	}()
	if profileDir != "" {
		if err := os.MkdirAll(profileDir, 0o755); err != nil {
			return fmt.Errorf("profile dir: %w", err)
		}
		f, err := os.Create(filepath.Join(profileDir, name+".cpu.pprof"))
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
			if err := writeHeapProfile(filepath.Join(profileDir, name+".heap.pprof")); err != nil {
				fmt.Fprintf(os.Stderr, "kaminobench: heap profile: %v\n", err)
			}
		}()
	}
	if benchOut == "" {
		return run(cfg)
	}
	art, err := bench.RunArtifact(name, run, cfg)
	if err != nil {
		return err
	}
	path, err := bench.WriteArtifact(benchOut, art)
	if err != nil {
		return err
	}
	fmt.Printf("artifact: %s (%d cells, %d samples)\n", path, len(art.Cells), len(art.Series))
	return nil
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

// finishTrace exports the recorded events and/or audits them.
func finishTrace(rec *trace.Recorder, out string, audit bool) error {
	events := rec.Events()
	if dropped := rec.Dropped(); dropped > 0 {
		fmt.Printf("trace: ring wrapped, oldest %d of %d events dropped (raise -trace-buf)\n",
			dropped, rec.Total())
	}
	if out != "" {
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
	}
	if audit {
		report := trace.AuditAll(events)
		if len(report) == 0 {
			fmt.Printf("audit: %d events, all safety invariants hold\n", len(events))
			return nil
		}
		for actor, vs := range report {
			for _, v := range vs {
				fmt.Fprintf(os.Stderr, "audit: %s: %s\n", actor, v)
			}
		}
		return fmt.Errorf("audit: safety invariant violations in %d actor(s)", len(report))
	}
	return nil
}
