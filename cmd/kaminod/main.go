// Command kaminod serves a persistent key-value store over TCP: the
// kamino engines behind a network API, with per-connection pipelining,
// cross-connection write batching, multi-tenant keyspaces, admission
// control that sheds overload, and graceful drain on SIGTERM.
//
//	kaminod -dir /var/lib/kamino -addr :7070 -metrics-addr :8080
//
// The first start against an empty directory creates the store (pick the
// engine with -mode); later starts reopen it. The pool's regions are
// mapped files in the directory, so an acknowledged write is there from
// the moment it is acknowledged and survives kill -9 at any instant. The
// metrics endpoint comes up before the pool opens, so a restarting
// process is observable while it recovers: /readyz reports "recovering"
// (503) until the pool has rebuilt its indexes, replayed its logs,
// rescanned its heap and served a probe transaction, and the
// recovery_progress gauge and index_attach/log_replay/rescan phase spans
// expose the staged pipeline while it runs. SIGTERM or SIGINT triggers a
// graceful drain: the listener closes, /readyz flips to "draining",
// in-flight requests finish, the pool closes, and the process exits 0.
// Operators: see OPERATIONS.md at the repo root.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"kaminotx/internal/kvstore"
	"kaminotx/internal/obs"
	"kaminotx/internal/server"
	"kaminotx/internal/trace"
	"kaminotx/kamino"
)

// flags holds kaminod's command line. OPERATIONS.md's flag table documents
// exactly the set defineFlags registers (flags_test.go compares the two).
type flags struct {
	addr, dir, mode, tenants, defTenant, metricsAddr, traceOut string

	heap, appliers, window, maxInflight, batchOps, maxValue, traceBuf int

	autoTenant bool
	drainWait  time.Duration
}

// defineFlags registers every kaminod flag on fs.
func defineFlags(fs *flag.FlagSet) *flags {
	f := new(flags)
	fs.StringVar(&f.addr, "addr", ":7070", "KV service listen address")
	fs.StringVar(&f.dir, "dir", "", "pool directory (required; created on first start)")
	fs.StringVar(&f.mode, "mode", string(kamino.ModeSimple), "engine for a new store: "+kamino.ModeNames())
	fs.IntVar(&f.heap, "heap", 64<<20, "heap size for a new store")
	fs.IntVar(&f.appliers, "appliers", 0, "backup-sync applier workers for kamino modes (0 = auto)")
	fs.StringVar(&f.tenants, "tenants", "", "comma-separated tenant names to register at startup")
	fs.BoolVar(&f.autoTenant, "auto-tenant", false, "register unknown tenant names on first use")
	fs.StringVar(&f.defTenant, "default-tenant", "default", "tenant used by requests with no tenant name")
	fs.IntVar(&f.window, "window", 64, "per-connection pipeline window (in-flight requests)")
	fs.IntVar(&f.maxInflight, "max-inflight", 1024, "server-wide admission budget before shedding")
	fs.IntVar(&f.batchOps, "batch-ops", 32, "max write operations coalesced per engine transaction (1 disables)")
	fs.IntVar(&f.maxValue, "max-value", 1<<20, "largest accepted put payload in bytes")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "HTTP address for /metrics, /healthz, /readyz, /debug/requests, /debug/pprof ('' = off)")
	fs.DurationVar(&f.drainWait, "drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	fs.StringVar(&f.traceOut, "trace-out", "", "write a Chrome trace_event export of request+engine spans here on shutdown ('' = tracing off)")
	fs.IntVar(&f.traceBuf, "trace-buf", 1<<18, "trace recorder ring capacity (events)")
	return f
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()
	if f.dir == "" {
		fmt.Fprintln(os.Stderr, "kaminod: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := checkMode(kamino.Mode(f.mode)); err != nil {
		fatal(err)
	}

	var rec *trace.Recorder
	if f.traceOut != "" {
		rec = trace.NewRecorder(f.traceBuf)
	}

	// Readiness state machine, visible at /readyz before the pool even
	// opens: recovering → ok, with draining overlaid from the live server
	// once it exists.
	var recovered atomic.Bool
	var srvPtr atomic.Pointer[server.Server]
	readyState := func() (bool, string) {
		if s := srvPtr.Load(); s != nil && s.Draining() {
			return false, "draining"
		}
		if !recovered.Load() {
			return false, "recovering"
		}
		return true, "ok"
	}

	// Bring the metrics plane up first: a process restarting into a long
	// recovery must be observable during it (recovery_progress, the
	// index_attach/log_replay/rescan spans, /readyz=recovering).
	hub := obs.NewHub()
	var metricsSrv *http.Server
	if f.metricsAddr != "" {
		mux, _ := metricsMux(hub, readyState, &srvPtr)
		mln, err := net.Listen("tcp", f.metricsAddr)
		if err != nil {
			fatal(fmt.Errorf("metrics listener: %w", err))
		}
		metricsSrv = &http.Server{Handler: mux}
		go func() {
			if err := metricsSrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				logf("metrics server: %v", err)
			}
		}()
		logf("metrics on http://%s/metrics, /healthz, /readyz, /debug/requests, /debug/pprof/", mln.Addr())
	}

	pool, store, err := open(f.dir, kamino.Options{
		Mode:           kamino.Mode(f.mode),
		HeapSize:       f.heap,
		ApplierWorkers: f.appliers,
		Dir:            f.dir,
		Trace:          rec,
	})
	if err != nil {
		fatal(err)
	}
	hub.Set(pool.Obs().Name(), pool.Obs())
	logf("pool open: dir=%s engine=%s", f.dir, pool.Mode())
	for _, st := range pool.RecoveryReport() {
		logf("recovery: %-12s %s", st.Stage, st.Duration)
	}

	var tenantNames []string
	if f.tenants != "" {
		for _, name := range strings.Split(f.tenants, ",") {
			if name = strings.TrimSpace(name); name != "" {
				tenantNames = append(tenantNames, name)
			}
		}
	}
	srvReg := obs.New("server")
	hub.Set("server", srvReg)
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		pool.Close()
		fatal(err)
	}
	srv, err := server.New(ln, server.Options{
		Store:         store,
		Window:        f.window,
		MaxInflight:   f.maxInflight,
		BatchOps:      f.batchOps,
		MaxValueBytes: f.maxValue,
		DefaultTenant: f.defTenant,
		Tenants:       tenantNames,
		AutoTenant:    f.autoTenant,
		Obs:           srvReg,
		Trace:         rec,
	})
	if err != nil {
		ln.Close()
		pool.Close()
		fatal(err)
	}
	srvPtr.Store(srv)
	logf("serving KV protocol on %s (tenants: %s)", ln.Addr(), strings.Join(srv.Tenants().Names(), ", "))

	// Prove the recovered store serves transactions before reporting
	// ready: a read probe claims a log slot, runs and aborts, touching no
	// device.
	if err := pool.View(func(tx *kamino.Tx) error { return nil }); err != nil {
		srv.Close()
		pool.Close()
		fatal(fmt.Errorf("post-recovery probe transaction: %w", err))
	}

	recovered.Store(true)

	// Serve until a signal starts the drain. SIGTERM and SIGINT both mean
	// "finish what you took, close the pool, exit cleanly".
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	select {
	case sig := <-sigc:
		logf("received %s: draining (timeout %s)", sig, f.drainWait)
	case err := <-serveErr:
		pool.Close()
		fatal(fmt.Errorf("accept loop: %w", err))
	}

	ctx, cancel := context.WithTimeout(context.Background(), f.drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		logf("drain incomplete: %v (in-flight work may be lost)", err)
	} else {
		logf("drain complete: all acknowledged work durable")
	}
	srv.Close()
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	if err := pool.Close(); err != nil {
		fatal(fmt.Errorf("closing pool: %w", err))
	}
	logf("pool closed: %s", f.dir)
	if rec != nil {
		if err := writeTrace(f.traceOut, rec); err != nil {
			fatal(fmt.Errorf("trace export: %w", err))
		}
		logf("trace written: %s (%d events, %d dropped)", f.traceOut, rec.Total(), rec.Dropped())
	}
}

// metricsMux builds the -metrics-addr listener's mux and returns it with
// the patterns it registered. OPERATIONS.md's Observability list documents
// exactly these (flags_test.go compares the two); the registries have
// one rendering, /metrics, and nothing is mounted at /.
func metricsMux(hub *obs.Hub, readyState func() (bool, string), srv *atomic.Pointer[server.Server]) (*http.ServeMux, []string) {
	mux := http.NewServeMux()
	var patterns []string
	handle := func(pattern string, h http.Handler) {
		mux.Handle(pattern, h)
		patterns = append(patterns, pattern)
	}
	handle("/metrics", hub.PromHandler())
	handle("/healthz", obs.HealthHandler(time.Now()))
	handle("/readyz", obs.ReadyStateHandler(readyState))
	handle("/debug/requests", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s := srv.Load(); s != nil {
			s.Slow().Handler().ServeHTTP(w, r)
			return
		}
		http.Error(w, "server starting", http.StatusServiceUnavailable)
	}))
	handle("/debug/pprof/", http.HandlerFunc(pprof.Index))
	handle("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
	handle("/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
	handle("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
	handle("/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
	return mux, patterns
}

// writeTrace dumps the recorder's ring as a Chrome trace_event file
// (load into chrome://tracing or https://ui.perfetto.dev).
func writeTrace(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, rec.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// open reopens an existing pool directory or creates a fresh store. A
// reopen passes the runtime tunables (appliers, tracing) as an Open
// override: they take effect for the recovery scans
// themselves, and conflicts with the stored structural options fail fast
// instead of being silently ignored. A pool reopened without a store — the
// first start was killed between creating the pool and committing its
// store — gets one now.
func open(dir string, opts kamino.Options) (*kamino.Pool, *kvstore.Store, error) {
	var (
		pool *kamino.Pool
		err  error
	)
	if _, serr := os.Stat(dir + "/pool.json"); serr == nil {
		pool, err = kamino.Open(dir, kamino.Options{
			ApplierWorkers: opts.ApplierWorkers,
			Trace:          opts.Trace,
		})
	} else {
		pool, err = kamino.Create(opts)
	}
	if err != nil {
		return nil, nil, err
	}
	store, err := kvstore.Open(pool)
	if errors.Is(err, kvstore.ErrNoStore) {
		store, err = kvstore.Create(pool, 0)
	}
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	return pool, store, nil
}

// checkMode rejects engines that cannot back a durable network store:
// nolog tears data on crash or abort, and inplace is the chain-replica
// engine (no abort; recovery needs a chain neighbour — see kamino/chain).
func checkMode(mode kamino.Mode) error {
	switch mode {
	case kamino.ModeNoLog:
		return fmt.Errorf("mode %q is the unsafe benchmark baseline (crashes and aborts tear data); it cannot back a durable store", mode)
	case kamino.ModeInPlace:
		return fmt.Errorf("mode %q is the chain-replica engine (no abort, recovery needs a chain neighbour); it runs only inside a chain (package kamino/chain; see its Example)", mode)
	}
	return nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kaminod: "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kaminod:", err)
	os.Exit(1)
}
