// Package loadgen drives a kaminod server with generated load and
// measures latency without coordinated omission.
//
// In open-loop mode (Rate > 0) each connection issues requests on a
// fixed arrival schedule — request n is DUE at start + n/rate,
// independent of how the server is keeping up — and every latency sample
// is measured from that scheduled arrival time, not from when the client
// finally managed to send. A server that stalls therefore accrues the
// stall into every sample scheduled during it, exactly as real clients
// would experience it; a closed-loop generator would instead politely
// stop offering load and hide the stall (coordinated omission).
//
// In closed-loop mode (Rate == 0) each connection keeps Window requests
// outstanding at all times and latency is measured from issue; this
// measures the server's capacity rather than its behaviour at a given
// offered rate (kaminoload -rate 0), and is how a pipelined client
// (window=N) is compared with a one-request-per-round-trip one (window=1).
package loadgen

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"kaminotx/internal/server"
	"kaminotx/internal/stats"
	"kaminotx/internal/transport"
	"kaminotx/internal/workload"
)

// Config parameterizes one load run.
type Config struct {
	// Addr is the kaminod server address. Required.
	Addr string
	// Tenant is the keyspace to drive ("" = server default).
	Tenant string
	// Conns is the number of client connections. Default 4.
	Conns int
	// Rate is the TOTAL offered ops/sec across all connections (open
	// loop). 0 selects closed-loop mode.
	Rate float64
	// Window bounds outstanding requests per connection: the pipeline
	// depth in closed-loop mode, an overload backstop in open-loop mode.
	// Default 256.
	Window int
	// Duration is how long to offer load. Default 1s.
	Duration time.Duration
	// Keys is the preloaded keyspace size reads and updates draw from.
	// Default 1000.
	Keys uint64
	// ValueSize is the put payload size. Default 100.
	ValueSize int
	// Mix is the YCSB operation mix. Default 50/50 read/update (YCSB A).
	Mix workload.Mix
	// Seed makes runs reproducible. Same seed, same arrival keys.
	Seed int64
	// Breakdown asks the server for its per-phase latency split on every
	// response and aggregates it into Result.Phase: end-to-end latency
	// decomposes into server phases plus the network+queue remainder.
	Breakdown bool
}

func (c Config) withDefaults() Config {
	if c.Conns == 0 {
		c.Conns = 4
	}
	if c.Window == 0 {
		c.Window = 256
	}
	if c.Duration == 0 {
		c.Duration = time.Second
	}
	if c.Keys == 0 {
		c.Keys = 1000
	}
	if c.ValueSize == 0 {
		c.ValueSize = 100
	}
	if c.Mix == (workload.Mix{}) {
		c.Mix = workload.MixA
	}
	return c
}

// Result is one load run's outcome.
type Result struct {
	// Issued counts requests sent (open loop: arrivals that fit the
	// schedule horizon).
	Issued uint64
	// OK, Busy, Errors partition the completions: successes, explicit
	// admission sheds, and everything else (including transport loss).
	OK, Busy, Errors uint64
	// Elapsed spans first send to last completion.
	Elapsed time.Duration
	// Hist holds successful operations' latencies, measured from
	// scheduled arrival (open loop) or issue (closed loop).
	Hist *stats.Histogram
	// Throughput is OK completions per second of Elapsed.
	Throughput float64
	// OfferedRate is Issued over the configured duration (open loop).
	OfferedRate float64
	// Phase holds per-phase latency histograms aggregated from the
	// servers' response breakdowns, indexed by transport.KVPhase (nil
	// without Config.Breakdown). Phase[KVPhaseRespWrite] stays empty: a
	// response cannot carry its own encode time.
	Phase []*stats.Histogram
	// NetQueue is the network + client-queue remainder per successful
	// op: end-to-end latency minus the server phases the response
	// attributed (clamped at zero), nil without Config.Breakdown. Under
	// open-loop overload this inherits the schedule lag that
	// coordinated-omission-safe measurement charges to each arrival.
	NetQueue *stats.Histogram
}

// timed pairs an in-flight call with the arrival it is accountable to.
type timed struct {
	call  *server.Call
	sched time.Time
}

// connResult is one connection's tally before merging.
type connResult struct {
	issued, ok, busy, errs uint64
	hist                   stats.Histogram
	phase                  [transport.KVPhaseCount]stats.Histogram
	netq                   stats.Histogram
	last                   time.Time
	err                    error
}

// Run executes one load run against a serving kaminod.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ks := workload.NewKeyState(cfg.Keys)
	results := make([]connResult, cfg.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runConn(cfg, ks, i, start)
		}(i)
	}
	wg.Wait()
	res := &Result{Hist: &stats.Histogram{}}
	if cfg.Breakdown {
		res.Phase = make([]*stats.Histogram, transport.KVPhaseCount)
		for i := range res.Phase {
			res.Phase[i] = &stats.Histogram{}
		}
		res.NetQueue = &stats.Histogram{}
	}
	end := start
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, r.err
		}
		res.Issued += r.issued
		res.OK += r.ok
		res.Busy += r.busy
		res.Errors += r.errs
		res.Hist.Merge(&r.hist)
		if cfg.Breakdown {
			for j := range r.phase {
				res.Phase[j].Merge(&r.phase[j])
			}
			res.NetQueue.Merge(&r.netq)
		}
		if r.last.After(end) {
			end = r.last
		}
	}
	res.Elapsed = end.Sub(start)
	if res.Elapsed > 0 {
		res.Throughput = float64(res.OK) / res.Elapsed.Seconds()
	}
	res.OfferedRate = float64(res.Issued) / cfg.Duration.Seconds()
	return res, nil
}

// runConn is one connection's send loop plus its in-order collector.
func runConn(cfg Config, ks *workload.KeyState, idx int, start time.Time) connResult {
	var r connResult
	c, err := server.Dial(cfg.Addr)
	if err != nil {
		r.err = fmt.Errorf("loadgen: conn %d: %w", idx, err)
		return r
	}
	defer c.Close()
	gen := workload.NewGenerator(cfg.Mix, ks, cfg.Seed+int64(idx)*7919)
	val := make([]byte, cfg.ValueSize)
	sem := make(chan struct{}, cfg.Window)
	inflight := make(chan timed, cfg.Window)
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() { // collector: completions arrive in request order
		defer cwg.Done()
		for tc := range inflight {
			<-tc.call.Done
			now := time.Now()
			lat := now.Sub(tc.sched)
			<-sem
			r.last = now
			switch {
			case tc.call.Err != nil:
				r.errs++
			case tc.call.Resp.Status == transport.KVOK:
				r.ok++
				r.hist.Record(lat)
				if ns := tc.call.Resp.PhaseNs; cfg.Breakdown && len(ns) > 0 {
					var serverNs int64
					for j, v := range ns {
						if j < len(r.phase) {
							r.phase[j].Record(time.Duration(v))
						}
						// decode includes the server's idle wait for the
						// request bytes — that is network time, not server
						// time, so only the post-decode phases subtract
						// from the end-to-end sample.
						if j != int(transport.KVPhaseDecode) {
							serverNs += v
						}
					}
					nq := lat - time.Duration(serverNs)
					if nq < 0 {
						nq = 0
					}
					r.netq.Record(nq)
				}
			case tc.call.Resp.Status == transport.KVErrBusy:
				r.busy++
			default:
				r.errs++
			}
		}
	}()

	perConn := cfg.Rate / float64(cfg.Conns)
	deadline := start.Add(cfg.Duration)
	for n := uint64(0); ; n++ {
		var sched time.Time
		if cfg.Rate > 0 {
			// Open loop: arrival n is due at a fixed point regardless of
			// server progress; never skip, never delay past due time.
			sched = start.Add(time.Duration(float64(n) / perConn * float64(time.Second)))
			if sched.After(deadline) {
				break
			}
			if d := time.Until(sched); d > 0 {
				time.Sleep(d)
			}
		} else {
			// Closed loop: issue as soon as a window slot frees.
			if !time.Now().Before(deadline) {
				break
			}
			sched = time.Now()
		}
		sem <- struct{}{} // overload backstop; waiting counts into latency
		req := nextReq(gen, cfg.Tenant, val)
		req.Breakdown = cfg.Breakdown
		call, err := c.Send(req)
		if err != nil {
			<-sem
			r.errs++
			break // transport dead: collector drains what's in flight
		}
		r.issued++
		inflight <- timed{call: call, sched: sched}
	}
	close(inflight)
	cwg.Wait()
	return r
}

// nextReq maps one YCSB op onto the wire protocol.
func nextReq(gen *workload.Generator, tenant string, val []byte) *transport.KVRequest {
	op := gen.Next()
	switch op.Kind {
	case workload.OpRead:
		return &transport.KVRequest{Kind: transport.KVGet, Tenant: tenant, Key: op.Key}
	default:
		// Updates, inserts and RMWs are all puts on the wire (the server
		// has no server-side RMW; kaminoload approximates it as a blind
		// write of the generated value).
		workload.Value(op.Key, val)
		return &transport.KVRequest{Kind: transport.KVPut, Tenant: tenant, Key: op.Key, Value: val}
	}
}

// Preload fills the tenant's keyspace with keys 0..keys-1 using pipelined
// puts, so reads during a run hit existing records.
func Preload(addr, tenant string, keys uint64, valueSize, conns int) error {
	return eachKey(addr, keys, conns, func(k uint64) *transport.KVRequest {
		val := make([]byte, valueSize)
		workload.Value(k, val)
		return &transport.KVRequest{Kind: transport.KVPut, Tenant: tenant, Key: k, Value: val}
	}, func(uint64, *transport.KVResponse) error { return nil })
}

// Verify reads keys 0..keys-1 back with pipelined gets and checks each
// against the deterministic preload payload (workload.Value at valueSize).
// It returns the number of verified keys and fails on the first missing
// key or payload mismatch — the zero-lost-acked-writes gate the recovery
// smoke runs against a restarted kaminod.
func Verify(addr, tenant string, keys uint64, valueSize, conns int) (uint64, error) {
	return keys, eachKey(addr, keys, conns, func(k uint64) *transport.KVRequest {
		return &transport.KVRequest{Kind: transport.KVGet, Tenant: tenant, Key: k}
	}, func(k uint64, resp *transport.KVResponse) error {
		if !resp.Found {
			return errors.New("acked write lost (not found)")
		}
		want := make([]byte, valueSize)
		workload.Value(k, want)
		if !bytes.Equal(resp.Value, want) {
			return fmt.Errorf("payload mismatch (%d bytes, want %d)", len(resp.Value), len(want))
		}
		return nil
	})
}

// eachKey sends request(k) for every key 0..keys-1 and passes each
// successful response to check. The keys are split into one contiguous
// range per connection (conns ≤ 0 means 4), and each connection keeps up
// to 128 requests in flight. It returns the first error any connection
// met.
func eachKey(addr string, keys uint64, conns int, request func(k uint64) *transport.KVRequest,
	check func(k uint64, resp *transport.KVResponse) error) error {
	if conns <= 0 {
		conns = 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	per := (keys + uint64(conns) - 1) / uint64(conns)
	for lo := uint64(0); lo < keys; lo += per {
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			if err := keyRange(addr, lo, hi, request, check); err != nil {
				errs <- err
			}
		}(lo, min(lo+per, keys))
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// keyRange drives keys lo..hi-1 over one connection for eachKey.
func keyRange(addr string, lo, hi uint64, request func(k uint64) *transport.KVRequest,
	check func(k uint64, resp *transport.KVResponse) error) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	var calls []*server.Call // in flight, for keys next, next+1, ...
	next := lo
	for k := lo; k < hi || len(calls) > 0; {
		// Send while the window has room; otherwise complete the oldest.
		if k < hi && len(calls) < 128 {
			call, err := c.Send(request(k))
			if err != nil {
				return err
			}
			calls = append(calls, call)
			k++
			continue
		}
		resp, err := calls[0].Wait()
		if err == nil {
			err = check(next, resp)
		}
		if err != nil {
			return fmt.Errorf("key %d: %w", next, err)
		}
		calls, next = calls[1:], next+1
	}
	return nil
}
