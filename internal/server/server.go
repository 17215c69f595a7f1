// Package server implements the network-facing KV service core behind
// cmd/kaminod: a concurrent TCP server exposing one keyspace (get, put,
// delete) over any kamino engine, speaking the length-prefixed binary
// request/response frames of internal/transport's kvwire layer.
//
// Design (one connection, front to back):
//
//   - the reader goroutine decodes requests and reserves each one a slot
//     in a bounded in-order queue (the per-connection pipeline window);
//     when the window is full the decode loop stalls, which backpressures
//     the client through TCP instead of buffering unboundedly;
//   - admission is a server-wide token budget: a request that cannot get
//     a token is SHED with an explicit busy error rather than queued, so
//     overload degrades into fast failures, not latency collapse;
//   - reads (gets) execute on the connection's response writer
//     when it reaches them, so every earlier request on the connection
//     has completed first (per-connection read-your-writes, by
//     construction); reads on different connections run concurrently;
//     writes flow into a single server-wide batcher
//     that coalesces key-disjoint operations from ALL connections into
//     one engine transaction per batch (one intent-log slot, one commit
//     persist, one backup reconciliation), splitting in half on abort
//     like the chain's hop batcher (PR 3) until single operations
//     execute through the ordinary split-capable path;
//   - the writer goroutine completes slots strictly in request order, so
//     a client can pipeline arbitrarily and match responses positionally;
//     it flushes only when no further response is queued, so a burst of
//     responses shares one socket write.
//
// Keyspace: every request reads and writes the store's "default" tenant,
// a kvstore.PrefixedStore resolved once in New (48-bit keys under a 16-bit
// tenant prefix — see internal/kvstore/prefix.go). A store filled below
// the wire through that tenant serves its keys unchanged.
//
// Shutdown: Drain stops accepting connections, rejects new requests with
// a shutdown error, waits for every in-flight request to complete and its
// response to be written, and returns; the owner then closes the pool. Readiness endpoints flip as soon as draining starts.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kaminotx/internal/kvstore"
	"kaminotx/internal/obs"
	"kaminotx/internal/trace"
	"kaminotx/internal/transport"
)

// Options configures a Server.
type Options struct {
	// Store is the root store whose default tenant is served. Required.
	Store *kvstore.Store

	// Window bounds each connection's pipelined in-flight requests; a
	// full window stalls the connection's decode loop (TCP
	// backpressure). Default 64.
	Window int

	// MaxInflight is the server-wide admission budget: requests beyond
	// it are shed with KVErrBusy instead of queued. Default 1024.
	MaxInflight int

	// BatchOps caps how many write operations the batcher coalesces
	// into one engine transaction. Default 32; 1 disables batching.
	BatchOps int

	// BatchDelay is no longer consulted: the batcher takes what queued
	// while its previous transaction ran and never waits (batches form
	// only from genuinely concurrent writes). The field remains so that
	// callers which set it keep compiling.
	BatchDelay time.Duration

	// MaxValueBytes rejects larger put payloads as bad requests before
	// they reach the engine. Default 1 MiB.
	MaxValueBytes int

	// Obs, if set, receives the server's counters and gauges
	// (connections, admission queue depth, shed/served counters, batch
	// sizes and splits).
	Obs *obs.Registry

	// Trace, if set, receives per-request phase spans (actor "server",
	// keyed by a trace id the server mints for each request) and
	// request-to-transaction link events joining each write to the engine
	// transaction that executed it.
	Trace *trace.Recorder
}

func (o Options) withDefaults() Options {
	if o.Window == 0 {
		o.Window = 64
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 1024
	}
	if o.BatchOps == 0 {
		o.BatchOps = 32
	}
	if o.MaxValueBytes == 0 {
		o.MaxValueBytes = 1 << 20
	}
	return o
}

// Server serves the KV protocol on one listener.
type Server struct {
	opts     Options
	ln       net.Listener
	tenants  *kvstore.Tenants
	keyspace *kvstore.PrefixedStore // the default tenant: what every request addresses

	// writeMu serializes the batcher's transactions on the root store
	// (kvstore.ApplyBatch requires a single concurrent writer).
	writeMu sync.Mutex

	admit   chan struct{} // admission tokens (buffered MaxInflight)
	writeCh chan *wreq    // admitted writes, in arrival order

	draining atomic.Bool
	stop     chan struct{} // closed by Close: stops batcher and accept loop
	closed   atomic.Bool

	// reqMu orders request admission against the Drain wait:
	// a request is counted and a waiter looks under the same lock (a
	// WaitGroup forbids Add from zero beside a Wait, which is exactly what
	// a request arriving during a drain does).
	reqMu   sync.Mutex
	reqs    int           // in-flight requests (accepted, not yet completed)
	reqIdle chan struct{} // non-nil while somebody waits; closed when reqs reaches 0

	connWG  sync.WaitGroup // live connection handlers
	batchWG sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// metrics
	nConns    atomic.Int64
	cOps      map[transport.KVKind]*obs.Counter
	cShed     *obs.Counter
	cRejected *obs.Counter
	cBatches  *obs.Counter
	cBatchOps *obs.Counter
	cSplits   *obs.Counter

	// request-phase attribution (always on; nanosecond timestamps are
	// cheap next to a network round trip)
	pPhase    [transport.KVPhaseCount]*obs.PhaseStat
	pKindWall map[transport.KVKind]*obs.PhaseStat

	tracer   *trace.Tracer // nil unless Options.Trace is set
	traceSeq atomic.Uint64

	slow *SlowLog
}

// New builds a Server over ln. The listener is owned by the server from
// here on (Drain and Close close it). The default tenant is registered
// durably, if it is not already, before serving starts.
func New(ln net.Listener, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.Store == nil {
		return nil, errors.New("server: Options.Store is required")
	}
	tenants, err := kvstore.LoadTenants(opts.Store)
	if err != nil {
		return nil, fmt.Errorf("server: loading tenant registry: %w", err)
	}
	keyspace, err := tenants.Ensure("default")
	if err != nil {
		return nil, fmt.Errorf("server: registering the default tenant: %w", err)
	}
	s := &Server{
		opts:      opts,
		ln:        ln,
		tenants:   tenants,
		keyspace:  keyspace,
		admit:     make(chan struct{}, opts.MaxInflight),
		writeCh:   make(chan *wreq, opts.MaxInflight),
		stop:      make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
		cOps:      make(map[transport.KVKind]*obs.Counter),
		pKindWall: make(map[transport.KVKind]*obs.PhaseStat),
		slow:      NewSlowLog(slowN, slowWindow),
	}
	if opts.Trace != nil {
		s.tracer = opts.Trace.Tracer("server")
	}
	s.initObs()
	s.batchWG.Add(1)
	go s.batcher()
	return s, nil
}

// Slow returns the slow-request ring (serve it at /debug/requests via
// SlowLog.Handler).
func (s *Server) Slow() *SlowLog { return s.slow }

// kinds are the request kinds the server serves, each with its own counter
// and wall timer.
var kinds = []transport.KVKind{transport.KVPing, transport.KVGet, transport.KVPut, transport.KVDelete}

// initObs registers the server's counters and gauges.
func (s *Server) initObs() {
	reg := s.opts.Obs
	if reg == nil {
		reg = obs.New("server")
	}
	for _, k := range kinds {
		s.cOps[k] = reg.Counter("ops_" + k.String())
	}
	s.cShed = reg.Counter("shed")
	s.cRejected = reg.Counter("rejected")
	s.cBatches = reg.Counter("batches")
	s.cBatchOps = reg.Counter("batched_ops")
	s.cSplits = reg.Counter("batch_splits")
	reg.Gauge("connections", func() uint64 { return uint64(s.nConns.Load()) })
	reg.Gauge("admitted_inflight", func() uint64 { return uint64(len(s.admit)) })
	reg.Gauge("write_queue_depth", func() uint64 { return uint64(len(s.writeCh)) })
	reg.Gauge("slow_ring_floor_ns", func() uint64 { return uint64(s.slow.Floor()) })
	// Per-phase request timers (the six serve phases) and per-kind wall
	// timers: fixed cardinality, so /metrics exposes quantiles for each.
	for i := transport.KVPhase(0); i < transport.KVPhaseCount; i++ {
		s.pPhase[i] = reg.Phase(obs.Phase(i.String()))
	}
	for _, k := range kinds {
		s.pKindWall[k] = reg.Phase(obs.Phase("req_wall_" + k.String()))
	}
}

// phase records how long p spent in phase ph: its slot in the request's
// phase vector and, when tracing, the span of the same name. Every phase
// goes through here, so a span and its slot cannot disagree.
func (s *Server) phase(p *pending, ph transport.KVPhase, ns int64) {
	p.ns[ph] = ns
	s.tracer.SpanTrace(ph.String(), p.trace, time.Duration(ns))
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Tenants exposes the store's tenant registry, whose "default" tenant the
// server serves; the owner fills it below the wire through Ensure.
func (s *Server) Tenants() *kvstore.Tenants { return s.tenants }

// Draining reports whether a drain has started (readyz wiring).
func (s *Server) Draining() bool { return s.draining.Load() }

// Serve accepts connections until the listener closes (via Drain or
// Close). It always returns a non-nil error; after a clean drain the
// error is net.ErrClosed.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return err
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.nConns.Add(1)
		s.connWG.Add(1)
		go s.serveConn(conn)
	}
}

// pending is one request's slot in its connection's in-order response
// queue. finish completes it exactly once.
//
// ns is the request's latency timeline. Each slot is written by the single
// goroutine that owns the request at that stage (reader → dispatcher →
// batcher or response writer), and the response writer reads the vector
// only after <-done; every handoff is a channel send or close, so it needs
// no lock.
type pending struct {
	resp  transport.KVResponse
	done  chan struct{}
	once  sync.Once
	token bool // holds an admission token until finished

	// read marks an admitted get: the response writer executes it when it
	// reaches the slot. Set before the slot enters the order queue.
	read bool

	kind     transport.KVKind
	key      uint64
	bytes    int       // put payload size
	trace    uint64    // server-minted trace id; 0 when not tracing
	wantNs   bool      // client asked for PhaseNs in the response
	start    time.Time // decode end: the request's server wall starts here
	ns       Phases    // decode (wire wait included; outside wall) to resp_write
	batchLen int       // operations sharing the engine transaction
	doneAt   time.Time // finish time: order_wait starts here
}

// finish fills in the response and releases the slot's resources.
func (s *Server) finish(p *pending, fill func(*transport.KVResponse)) {
	p.once.Do(func() {
		fill(&p.resp)
		p.doneAt = time.Now()
		if p.token {
			<-s.admit
		}
		s.endReq()
		close(p.done)
	})
}

// beginReq counts a decoded request as in flight; finish ends it.
func (s *Server) beginReq() {
	s.reqMu.Lock()
	s.reqs++
	s.reqMu.Unlock()
}

func (s *Server) endReq() {
	s.reqMu.Lock()
	s.reqs--
	if s.reqs == 0 && s.reqIdle != nil {
		close(s.reqIdle)
		s.reqIdle = nil
	}
	s.reqMu.Unlock()
}

// waitIdle blocks until no request is in flight, or returns ctx.Err() if
// the context ends first.
func (s *Server) waitIdle(ctx context.Context) error {
	s.reqMu.Lock()
	if s.reqs == 0 {
		s.reqMu.Unlock()
		return nil
	}
	if s.reqIdle == nil {
		s.reqIdle = make(chan struct{})
	}
	idle := s.reqIdle
	s.reqMu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// fail is finish with just a status and error text.
func (s *Server) fail(p *pending, st transport.KVStatus, err error) {
	s.finish(p, func(r *transport.KVResponse) {
		r.Status = st
		if err != nil {
			r.Err = err.Error()
		}
	})
}

// serveConn runs one connection: a decode loop dispatching into the
// pipeline, and a writer draining completed slots in request order.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		s.nConns.Add(-1)
		s.connWG.Done()
	}()
	order := make(chan *pending, s.opts.Window)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: responses in request order
		defer wg.Done()
		bw := bufio.NewWriter(conn)
		enc := transport.NewKVEncoder(bw)
		for p := range order {
			var err error
			if p.read {
				// Every earlier slot on the connection has completed, so
				// the read sees the connection's earlier writes.
				s.runRead(p)
			}
			select {
			case <-p.done:
			default:
				// This slot is unfinished: send the finished responses
				// buffered ahead of it before waiting.
				err = bw.Flush()
				<-p.done
			}
			s.phase(p, transport.KVPhaseOrderWait, time.Since(p.doneAt).Nanoseconds())
			if p.wantNs {
				// resp_write is still 0: a response cannot carry its own
				// encode time.
				p.resp.PhaseNs = p.ns[:]
			}
			w0 := time.Now()
			if err == nil {
				err = s.writeResponse(enc, p)
			}
			if err == nil && len(order) == 0 {
				err = bw.Flush()
			}
			s.phase(p, transport.KVPhaseRespWrite, time.Since(w0).Nanoseconds())
			s.completeReq(p)
			if err != nil {
				break
			}
		}
		bw.Flush()
		conn.Close() // unblocks the reader if it outlives us
		// Drain remaining slots so their finishers never block; a read
		// nobody will execute now is failed, which returns its admission
		// token and ends it for Drain.
		for p := range order {
			if p.read {
				s.fail(p, transport.KVErrShutdown, errors.New("connection closed"))
			}
			<-p.done
		}
	}()

	dec := transport.NewKVDecoder(bufio.NewReader(conn))
	for {
		var req transport.KVRequest
		d0 := time.Now()
		if err := dec.Request(&req); err != nil {
			break
		}
		now := time.Now()
		s.beginReq()
		p := &pending{
			done:   make(chan struct{}),
			kind:   req.Kind,
			key:    req.Key,
			bytes:  len(req.Value),
			wantNs: req.Breakdown,
			start:  now,
		}
		if s.tracer != nil {
			p.trace = s.traceSeq.Add(1)
		}
		s.phase(p, transport.KVPhaseDecode, now.Sub(d0).Nanoseconds())
		p.resp.ID = req.ID
		// The slot is fully classified before the writer can see it: a
		// read it found unmarked would be waited on, never executed.
		w := s.dispatch(&req, p)
		order <- p // blocks when the window is full: TCP backpressure
		if w != nil {
			s.writeCh <- w // buffered to MaxInflight: token holders never block
		}
	}
	close(order)
	wg.Wait()
	conn.Close()
}

// writeResponse encodes p's response. A result too large for one frame (a
// value stored below the wire, past any put's limit) is answered with a
// bad-request status instead: the encoder wrote none of it, so the stream
// stays intact.
func (s *Server) writeResponse(enc *transport.KVEncoder, p *pending) error {
	err := enc.Response(&p.resp)
	if errors.Is(err, transport.ErrKVFrameTooLarge) {
		r := &p.resp
		*r = transport.KVResponse{ID: r.ID, Status: transport.KVErrBadRequest, Err: err.Error(),
			PhaseNs: r.PhaseNs}
		err = enc.Response(r)
	}
	return err
}

// completeReq closes out a request's accounting after its response hit
// the socket: phase and wall timers and the slow-request ring, all read
// from the request's phase vector.
func (s *Server) completeReq(p *pending) {
	wallNs := p.ns[transport.KVPhaseDecode] + time.Since(p.start).Nanoseconds()
	for ph, ns := range p.ns {
		s.pPhase[ph].Observe(time.Duration(ns))
	}
	if t, ok := s.pKindWall[p.kind]; ok {
		t.Observe(time.Duration(wallNs))
	}
	s.slow.Insert(SlowRecord{
		Trace:  p.trace,
		Kind:   p.kind.String(),
		Key:    p.key,
		Bytes:  p.bytes,
		Batch:  p.batchLen,
		Status: p.resp.Status.String(),
		Start:  p.start,
		WallNs: wallNs,
		Phases: p.ns,
	})
}

// dispatch classifies one decoded request, before its slot enters the
// order queue. A request it can answer now (ping, shed, rejected) is
// finished here; an admitted read is marked for the response writer; an
// admitted write is returned for the caller to hand to the batcher once
// the slot is queued.
func (s *Server) dispatch(req *transport.KVRequest, p *pending) *wreq {
	if c, ok := s.cOps[req.Kind]; ok {
		c.Inc()
	}
	if s.draining.Load() {
		s.cRejected.Inc()
		s.fail(p, transport.KVErrShutdown, errors.New("server draining"))
		return nil
	}
	if req.Kind == transport.KVPing {
		s.finish(p, func(r *transport.KVResponse) { r.Status = transport.KVOK })
		return nil
	}
	// Admission: overload sheds instead of queueing.
	select {
	case s.admit <- struct{}{}:
		p.token = true
	default:
		s.cShed.Inc()
		s.fail(p, transport.KVErrBusy, errors.New("admission queue full"))
		return nil
	}
	// admission_wait: decode end to token in hand (covers the shed
	// decision).
	s.phase(p, transport.KVPhaseAdmissionWait, time.Since(p.start).Nanoseconds())
	switch req.Kind {
	case transport.KVPut, transport.KVDelete:
		if req.Kind == transport.KVPut && len(req.Value) > s.opts.MaxValueBytes {
			s.fail(p, transport.KVErrBadRequest,
				fmt.Errorf("value %d bytes exceeds limit %d", len(req.Value), s.opts.MaxValueBytes))
			return nil
		}
		gkey, err := s.keyspace.Global(req.Key)
		if err != nil {
			s.fail(p, transport.KVErrBadRequest, err)
			return nil
		}
		return &wreq{p: p, key: gkey, value: req.Value, delete: req.Kind == transport.KVDelete}
	case transport.KVGet:
		p.read = true
		return nil
	default:
		s.fail(p, transport.KVErrBadRequest, fmt.Errorf("unknown request kind %d", req.Kind))
		return nil
	}
}

// runRead executes a get slot. The response writer calls it on reaching
// the slot, when every earlier request on the connection has completed.
func (s *Server) runRead(p *pending) {
	// batch_wait for a read is the wait for the writer to reach it.
	s.phase(p, transport.KVPhaseBatchWait, time.Since(p.start).Nanoseconds()-p.ns[transport.KVPhaseAdmissionWait])
	e0 := time.Now()
	v, ok, err := s.keyspace.Read(p.key)
	// engine_txn for a read is the store call itself (read-only engine
	// transactions trace no TxID-keyed events, so there is no req_tx
	// link; the span carries the duration). Set before finish: the
	// response writer reads the phase vector once done closes.
	s.phase(p, transport.KVPhaseEngineTxn, time.Since(e0).Nanoseconds())
	switch {
	case errors.Is(err, kvstore.ErrKeyRange):
		s.fail(p, transport.KVErrBadRequest, err)
	case err != nil:
		s.fail(p, transport.KVErrInternal, err)
	default:
		s.finish(p, func(r *transport.KVResponse) {
			r.Status = transport.KVOK
			r.Found = ok
			r.Value = v
		})
	}
}

// Drain gracefully shuts the server down: stop accepting connections,
// reject requests that arrive from now on, wait until every in-flight
// request has completed AND its response has been handed to the kernel,
// then close the remaining connections. The store is untouched — the
// caller closes it. Returns ctx.Err() if the context expires
// first (in-flight work keeps completing in the background).
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		s.ln.Close()
	}
	if err := s.waitIdle(ctx); err != nil {
		return err
	}
	// Every response slot is complete; writers flush as their queues
	// drain. Closing the read sides unblocks decode loops so handlers
	// exit; writers then flush and close fully.
	s.connMu.Lock()
	for conn := range s.conns {
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseRead()
		} else {
			conn.Close()
		}
	}
	s.connMu.Unlock()
	waitConns := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(waitConns)
	}()
	select {
	case <-waitConns:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// Close tears the server down without waiting for in-flight work:
// listener and connections close, the batcher stops after answering
// queued writes with a shutdown error. Call after Drain for a graceful
// exit, or alone in tests.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.draining.Store(true)
	s.ln.Close()
	close(s.stop)
	s.batchWG.Wait()
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
}
