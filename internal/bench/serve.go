package bench

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"kaminotx/internal/kvstore"
	"kaminotx/internal/loadgen"
	"kaminotx/internal/obs"
	"kaminotx/internal/server"
	"kaminotx/internal/stats"
	"kaminotx/internal/trace"
	"kaminotx/internal/transport"
	"kaminotx/internal/workload"
	"kaminotx/kamino"
)

// Serve measures the network service end to end: an in-process kaminod
// core on a loopback listener, driven by the open-loop generator.
//
// Four measurements, in order:
//
//  1. Pipelining: closed-loop throughput at window=1 (one request per
//     RTT, the naive client) versus window=64 (pipelined) at the same
//     connection count. The server promises ≥2× here; the report flags a
//     shortfall.
//  2. Latency under load: an open-loop arrival-rate sweep at fixed
//     fractions of the measured capacity (cells key on the load
//     fraction; the calibrated absolute rate is recorded as a derived
//     _info param so runs align in benchdiff), with the server's
//     per-phase response breakdown aggregated into an attribution
//     table — where p50/p99/p999 time went: network+queue vs
//     admission_wait / batch_wait / engine_txn / order_wait — and one
//     latency-only cell per (load, component).
//  3. Tracing overhead: interleaved plain/traced closed-loop capacity
//     pairs, best-of per side; the full tracing stack (server spans,
//     req_tx links, response breakdowns, client spans) must stay
//     within 10% of plain throughput. The report flags a shortfall.
//  4. Drain audit: writers stream puts while the server drains; every
//     acknowledged put must be present after closing the pool,
//     reopening it from its checkpoint directory and re-reading — a
//     lost key fails the experiment.
func Serve(c Config) error {
	c = c.WithDefaults()
	dir, err := os.MkdirTemp("", "kamino-serve-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	mode := kamino.ModeSimple
	pool, err := kamino.Create(kamino.Options{
		Mode:              mode,
		HeapSize:          c.heapSize(),
		Dir:               dir,
		LogSlots:          256,
		LogEntriesPerSlot: 64,
		ApplierWorkers:    2,
		FlushLatency:      c.FlushLatency,
		FenceLatency:      c.FenceLatency,
		Trace:             c.Trace,
	})
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			pool.Close()
		}
	}()
	c.observe(pool)
	store, err := kvstore.Create(pool, 0)
	if err != nil {
		return err
	}
	srvReg := obs.New("server")
	if c.Metrics != nil {
		c.Metrics.Set("server", srvReg)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv, err := server.New(ln, server.Options{
		Store:   store,
		Tenants: []string{"audit"},
		Obs:     srvReg,
		Trace:   c.Trace,
	})
	if err != nil {
		ln.Close()
		return err
	}
	go srv.Serve()
	defer srv.Close()
	addr := srv.Addr().String()
	if c.Debug != nil {
		c.Debug.Register("requests", "server", func() any { return srv.Slow().Dump() })
	}

	conns := c.Threads
	if conns < 2 {
		conns = 2
	}
	fmt.Fprintf(c.Out, "serve: engine=%s addr=%s conns=%d keys=%d value=%dB\n",
		mode, addr, conns, c.Keys, c.ValueSize)
	if err := loadgen.Preload(addr, "", uint64(c.Keys), c.ValueSize, conns); err != nil {
		return fmt.Errorf("serve: preload: %w", err)
	}

	base := 250 * time.Millisecond
	if c.OpsPerThread >= 5000 {
		base = time.Second
	}
	common := loadgen.Config{
		Addr:      addr,
		Conns:     conns,
		Duration:  base,
		Keys:      uint64(c.Keys),
		ValueSize: c.ValueSize,
		Mix:       workload.MixA,
		Seed:      42,
	}

	// 1. Pipelining: one request per RTT vs a full window, closed loop.
	seqCfg := common
	seqCfg.Window = 1
	seq, err := loadgen.Run(seqCfg)
	if err != nil {
		return fmt.Errorf("serve: window=1 run: %w", err)
	}
	pipeCfg := common
	pipeCfg.Window = 64
	pipe, err := loadgen.Run(pipeCfg)
	if err != nil {
		return fmt.Errorf("serve: window=64 run: %w", err)
	}
	speedup := 0.0
	if seq.Throughput > 0 {
		speedup = pipe.Throughput / seq.Throughput
	}
	verdict := "ok (>=2x)"
	if speedup < 2 {
		verdict = "SHORTFALL (<2x)"
	}
	fmt.Fprintf(c.Out, "serve: pipelining: window=1 %.0f ops/s, window=64 %.0f ops/s -> %.1fx %s\n",
		seq.Throughput, pipe.Throughput, speedup, verdict)
	for _, m := range []struct {
		window float64
		r      *loadgen.Result
	}{{1, seq}, {64, pipe}} {
		c.recordCell(Cell{
			Engine: string(mode), Workload: "serve-pipeline", Threads: conns,
			Params: map[string]float64{"window": m.window, "speedup_info": speedup},
		}.withResult(resultFrom(m.r.Hist, m.r.Throughput)))
	}

	// 2. Latency under load: open-loop sweep at fractions of the
	// closed-loop capacity just measured, with the server's per-phase
	// breakdown on every response so each fraction's tail decomposes
	// into network+queue vs server phases.
	capacity := pipe.Throughput
	fmt.Fprintf(c.Out, "serve: latency under load (capacity %.0f ops/s, open loop):\n", capacity)
	fmt.Fprintf(c.Out, "  %-6s %9s %9s %8s %8s %8s %7s %7s\n",
		"load", "offered/s", "achieved", "p50", "p90", "p99", "shed", "errors")
	type loadRun struct {
		f float64
		r *loadgen.Result
	}
	var loadRuns []loadRun
	for _, f := range []float64{0.25, 0.5, 0.75, 1.0} {
		cfg := common
		cfg.Rate = capacity * f
		cfg.Window = 256
		cfg.Breakdown = true
		r, err := loadgen.Run(cfg)
		if err != nil {
			return fmt.Errorf("serve: load %.2f: %w", f, err)
		}
		loadRuns = append(loadRuns, loadRun{f, r})
		fmt.Fprintf(c.Out, "  %-6.2f %9.0f %9.0f %8s %8s %8s %7d %7d\n",
			f, r.OfferedRate, r.Throughput,
			r.Hist.Percentile(50).Round(time.Microsecond),
			r.Hist.Percentile(90).Round(time.Microsecond),
			r.Hist.Percentile(99).Round(time.Microsecond),
			r.Busy, r.Errors)
		c.recordCell(Cell{
			Engine: string(mode), Workload: "serve-load", Threads: conns,
			Params: map[string]float64{
				"load":         f,
				"offered_info": r.OfferedRate,
				"shed_info":    float64(r.Busy),
			},
		}.withResult(resultFrom(r.Hist, r.Throughput)))
	}

	// Attribution: where did each load fraction's time go? One latency-
	// only cell per (load, component) so benchdiff tracks the phases
	// across runs; net+queue is the end-to-end remainder the server
	// cannot see (wire, kernel, client scheduling — and, near
	// saturation, open-loop schedule lag).
	fmt.Fprintf(c.Out, "serve: attribution (p50/p99/p999 per phase):\n")
	fmt.Fprintf(c.Out, "  %-6s %-10s %10s %10s %10s\n", "load", "component", "p50", "p99", "p999")
	for _, lr := range loadRuns {
		type comp struct {
			name string
			h    *stats.Histogram
		}
		comps := []comp{{"net_queue", lr.r.NetQueue}}
		for _, ph := range []transport.KVPhase{transport.KVPhaseAdmissionWait,
			transport.KVPhaseBatchWait, transport.KVPhaseEngineTxn, transport.KVPhaseOrderWait} {
			comps = append(comps, comp{ph.String(), lr.r.Phase[ph]})
		}
		for _, cp := range comps {
			if cp.h == nil || cp.h.Count() == 0 {
				continue
			}
			fmt.Fprintf(c.Out, "  %-6.2f %-10s %10s %10s %10s\n",
				lr.f, cp.name,
				cp.h.Percentile(50).Round(time.Microsecond),
				cp.h.Percentile(99).Round(time.Microsecond),
				cp.h.Percentile(99.9).Round(time.Microsecond))
			c.recordCell(Cell{
				Engine: string(mode), Workload: "serve-phase/" + cp.name, Threads: conns,
				Params: map[string]float64{"load": lr.f},
			}.withResult(resultFrom(cp.h, 0)))
		}
	}

	// Tracing overhead: interleaved plain/traced capacity pairs (slow
	// periods of a shared host hit both sides), best-of per side, the
	// PR 7 protocol. Traced runs have the full stack on: server spans +
	// req_tx links, response breakdowns, client span recording. The
	// slow-request ring is always on (both sides pay it). Budget: ≤10%.
	rec := c.Trace
	if rec == nil {
		rec = trace.NewRecorder(1 << 16)
	}
	var bestPlain, bestTraced float64
	for i := 0; i < 3; i++ {
		srv.SetTracer(nil)
		plainCfg := common
		plainCfg.Window = 64
		plain, err := loadgen.Run(plainCfg)
		if err != nil {
			return fmt.Errorf("serve: overhead plain run: %w", err)
		}
		srv.SetTracer(rec.Tracer("server"))
		tracedCfg := common
		tracedCfg.Window = 64
		tracedCfg.Breakdown = true
		tracedCfg.Trace = rec
		traced, err := loadgen.Run(tracedCfg)
		if err != nil {
			return fmt.Errorf("serve: overhead traced run: %w", err)
		}
		if plain.Throughput > bestPlain {
			bestPlain = plain.Throughput
		}
		if traced.Throughput > bestTraced {
			bestTraced = traced.Throughput
		}
	}
	// Leave the server in its configured tracing state for the drain
	// audit (attached only when the harness was given a recorder).
	if c.Trace != nil {
		srv.SetTracer(c.Trace.Tracer("server"))
	} else {
		srv.SetTracer(nil)
	}
	overheadPct := 0.0
	if bestPlain > 0 {
		overheadPct = (bestPlain - bestTraced) / bestPlain * 100
	}
	overheadVerdict := "ok (<=10%)"
	if overheadPct > 10 {
		overheadVerdict = "SHORTFALL (>10%)"
	}
	fmt.Fprintf(c.Out, "serve: tracing overhead: plain %.0f ops/s, traced %.0f ops/s -> %.1f%% %s\n",
		bestPlain, bestTraced, overheadPct, overheadVerdict)
	for traced, ops := range map[float64]float64{0: bestPlain, 1: bestTraced} {
		c.recordCell(Cell{
			Engine: string(mode), Workload: "serve-overhead", Threads: conns,
			Params:    map[string]float64{"traced": traced, "overhead_pct_info": overheadPct},
			OpsPerSec: ops,
		})
	}

	// 3. Drain audit: acknowledged writes must survive drain + reopen.
	acked, err := drainAudit(srv, addr)
	if err != nil {
		return err
	}
	c.collect(pool)
	if err := pool.Close(); err != nil { // checkpoints into dir
		return fmt.Errorf("serve: closing pool: %w", err)
	}
	closed = true
	lost, err := auditReopen(dir, acked)
	if err != nil {
		return err
	}
	if lost > 0 {
		return fmt.Errorf("serve: DRAIN AUDIT FAILED: %d of %d acknowledged writes lost across drain+reopen", lost, len(acked))
	}
	fmt.Fprintf(c.Out, "serve: drain audit: %d acknowledged writes, 0 lost across drain+checkpoint+reopen\n", len(acked))
	c.recordCell(Cell{
		Engine: string(mode), Workload: "serve-drain", Threads: conns,
		Params: map[string]float64{
			"acked_info": float64(len(acked)),
			"lost_info":  float64(lost),
		},
	})
	return nil
}

// drainAudit streams puts into the audit tenant from two connections,
// drains the server mid-stream, and returns the keys whose puts were
// acknowledged before the drain cut them off.
func drainAudit(srv *server.Server, addr string) ([]uint64, error) {
	const writers = 2
	ackCh := make(chan uint64, 8192)
	done := make(chan struct{}, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			cl, err := server.Dial(addr)
			if err != nil {
				return
			}
			defer cl.Close()
			val := make([]byte, 64)
			for k := uint64(w); ; k += writers {
				workload.Value(k, val)
				if err := cl.Put("audit", k, val); err != nil {
					return // unacknowledged: not part of the audit set
				}
				ackCh <- k
			}
		}(w)
	}
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return nil, fmt.Errorf("serve: drain: %w", err)
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	close(ackCh)
	var acked []uint64
	for k := range ackCh {
		acked = append(acked, k)
	}
	if len(acked) == 0 {
		return nil, fmt.Errorf("serve: drain audit issued no acknowledged writes")
	}
	return acked, nil
}

// auditReopen reopens the checkpointed pool and verifies every
// acknowledged key is present with the expected payload.
func auditReopen(dir string, acked []uint64) (lost int, err error) {
	pool, err := kamino.Open(dir)
	if err != nil {
		return 0, fmt.Errorf("serve: reopening pool: %w", err)
	}
	defer pool.Close()
	store, err := kvstore.Open(pool)
	if err != nil {
		return 0, err
	}
	tenants, err := kvstore.LoadTenants(store)
	if err != nil {
		return 0, err
	}
	ps, ok := tenants.Lookup("audit")
	if !ok {
		return len(acked), fmt.Errorf("serve: audit tenant missing after reopen")
	}
	want := make([]byte, 64)
	for _, k := range acked {
		v, found, err := ps.Read(k)
		if err != nil {
			return lost, err
		}
		workload.Value(k, want)
		if !found || string(v) != string(want) {
			lost++
		}
	}
	return lost, nil
}
