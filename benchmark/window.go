package main

import (
	"encoding/binary"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"kaminotx/internal/obs"
	"kaminotx/internal/server"
	"kaminotx/internal/transport"
)

// counters is the sum, by name, of every counter and gauge of a set of obs
// registries. The names never collide within one system.
type counters map[string]uint64

func readCounters(regs []*obs.Registry) counters {
	cs := counters{}
	for _, r := range regs {
		snap := r.Snapshot()
		for name, v := range snap.Counters {
			cs[name] += v
		}
		for name, v := range snap.Gauges {
			cs[name] += v
		}
	}
	return cs
}

// sumNVM adds one device counter (fences, lines_flushed, bytes_written)
// over every simulated NVM region: main, backup and log of each pool, and
// the chain replicas' queues.
func (cs counters) sumNVM(field string) uint64 {
	var sum uint64
	for name, v := range cs {
		if strings.HasPrefix(name, "nvm.") && strings.HasSuffix(name, "."+field) {
			sum += v
		}
	}
	return sum
}

// samples is what one client gathers in one window: raw latencies in
// nanoseconds, no buckets.
type samples struct {
	get, put  []int64
	late      []int64 // open loop: how late each send left versus schedule
	phase     [transport.KVPhaseCount][]int64
	netq      []int64 // traced serve: client.req self time
	attempted uint64
	failed    uint64
	end       time.Time
}

// merge appends another client's samples.
func (s *samples) merge(o *samples) {
	s.get = append(s.get, o.get...)
	s.put = append(s.put, o.put...)
	s.late = append(s.late, o.late...)
	s.netq = append(s.netq, o.netq...)
	for i := range s.phase {
		s.phase[i] = append(s.phase[i], o.phase[i]...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
}

// sort orders every sample set, ready for percentile.
func (s *samples) sort() {
	for _, set := range [][]int64{s.get, s.put, s.late, s.netq} {
		slices.Sort(set)
	}
	for _, set := range s.phase {
		slices.Sort(set)
	}
}

// requests returns the sorted latencies of gets and puts together.
func (s *samples) requests() []int64 {
	merged := append(append([]int64(nil), s.get...), s.put...)
	slices.Sort(merged)
	return merged
}

func (s *samples) reset() {
	s.get, s.put, s.late, s.netq = s.get[:0], s.put[:0], s.late[:0], s.netq[:0]
	for i := range s.phase {
		s.phase[i] = s.phase[i][:0]
	}
	s.attempted, s.failed = 0, 0
}

// client is one load-generating goroutine or connection and the writer
// identity that goes with it.
type client struct {
	id     int
	stream *opStream
	// acked maps each key to the seq of this writer's last acknowledged
	// put: the model the verifier checks stored values against.
	acked map[uint64]uint32
	val   []byte
	rec   *recorder // nil while tracing is off
	reqs  uint64
	s     samples
}

func newClients(seed int64, spec *workloadSpec, sz sizes) []*client {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = &client{
			id:     i,
			stream: newOpStream(seed, i, spec.keys(sz), spec.mix),
			acked:  make(map[uint64]uint32),
			val:    make([]byte, sz.valueSize),
		}
	}
	return cs
}

// goodRead reports whether a get returned a value generated for its key;
// the full check against the model happens after the run.
func goodRead(key uint64, val []byte, found bool) bool {
	return found && len(val) >= valueHeader && binary.LittleEndian.Uint64(val) == key
}

// closedLoop issues this client's operations one at a time until deadline:
// the next is sent only when the previous returned.
func (c *client) closedLoop(sys system, putSpan, getSpan string, deadline time.Time) {
	for {
		o := c.stream.next()
		if o.put {
			fillValue(c.val, o.key, c.stream.writer, o.seq)
		}
		t0 := time.Now()
		if !t0.Before(deadline) {
			c.s.end = t0
			return
		}
		c.s.attempted++
		var err error
		good := true
		if o.put {
			err = sys.put(o.key, c.val)
		} else {
			var val []byte
			var found bool
			val, found, err = sys.get(o.key)
			good = err != nil || goodRead(o.key, val, found)
		}
		lat := int64(time.Since(t0))
		if err != nil || !good {
			c.s.failed++
			continue
		}
		if o.put {
			c.acked[o.key] = o.seq
			c.s.put = append(c.s.put, lat)
		} else {
			c.s.get = append(c.s.get, lat)
		}
		if c.rec != nil {
			c.reqs++
			start := int64(t0.Sub(epoch))
			name := getSpan
			if o.put {
				name = putSpan
			}
			c.rec.add(0, c.reqs, name, start, start+lat)
		}
	}
}

// inflight is one pipelined request awaiting its response.
type inflight struct {
	call *server.Call
	o    op
	t0   time.Time // when the request was due (open loop) or sent (closed)
}

// serverPhases are the response phases that tile the server's wall time and
// so become child spans of client.req. Decode is left out: it includes the
// connection's idle wait for bytes, which overlaps the network leg.
var serverPhases = []transport.KVPhase{
	transport.KVPhaseAdmissionWait, transport.KVPhaseBatchWait,
	transport.KVPhaseEngineTxn, transport.KVPhaseOrderWait,
}

// pipelined drives one connection with up to window requests in flight.
// With interval zero the loop is closed: a request is sent whenever the
// window has room, and timed from its send. Otherwise it is open: request k
// is due at first + k*interval whatever the server is doing, and timed from
// that instant, so a stall is charged to every arrival it delays.
func (c *client) pipelined(cl *server.Client, window int, first time.Time, interval time.Duration, deadline time.Time) {
	ch := make(chan inflight, window) // the window: a full channel blocks the sender
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		for f := range ch {
			<-f.call.Done
			c.complete(f, time.Now())
		}
	}()
	traced := c.rec != nil
	sendFailed := false // the completer owns c.s.failed until it exits
	for k := 0; ; k++ {
		o := c.stream.next()
		req := transport.KVRequest{Kind: transport.KVGet, Key: o.key, Breakdown: traced}
		if o.put {
			fillValue(c.val, o.key, c.stream.writer, o.seq)
			req.Kind, req.Value = transport.KVPut, c.val
		}
		t0 := time.Now()
		if interval > 0 {
			due := first.Add(time.Duration(k) * interval)
			if !due.Before(deadline) {
				break
			}
			if d := due.Sub(t0); d > 0 {
				time.Sleep(d)
			}
			c.s.late = append(c.s.late, max(0, int64(time.Since(due))))
			t0 = due
		} else if !t0.Before(deadline) {
			break
		}
		c.s.attempted++
		call, err := cl.Send(&req)
		if err != nil {
			sendFailed = true
			break
		}
		ch <- inflight{call: call, o: o, t0: t0}
	}
	close(ch)
	done.Wait()
	if sendFailed {
		c.s.failed++
	}
	c.s.end = time.Now()
}

// complete records one response. Only the completer goroutine calls it.
func (c *client) complete(f inflight, t1 time.Time) {
	resp := &f.call.Resp
	if f.call.Err != nil || resp.Status != transport.KVOK ||
		(!f.o.put && !goodRead(f.o.key, resp.Value, resp.Found)) {
		c.s.failed++
		return
	}
	lat := int64(t1.Sub(f.t0))
	if f.o.put {
		c.acked[f.o.key] = f.o.seq
		c.s.put = append(c.s.put, lat)
	} else {
		c.s.get = append(c.s.get, lat)
	}
	if c.rec == nil || len(resp.PhaseNs) < int(transport.KVPhaseCount) {
		return
	}
	for i, ns := range resp.PhaseNs {
		c.s.phase[i] = append(c.s.phase[i], ns)
	}
	// The response carries durations, not instants: the children are laid
	// back to back ending at the response's arrival, clipped to the root.
	c.reqs++
	start := int64(f.t0.Sub(epoch))
	end := start + lat
	root := c.rec.add(0, c.reqs, "client.req", start, end)
	var srvNs int64
	for _, p := range serverPhases {
		srvNs += resp.PhaseNs[p]
	}
	at := max(start, end-srvNs)
	for _, p := range serverPhases {
		stop := min(end, at+resp.PhaseNs[p])
		c.rec.add(root, c.reqs, "server."+p.String(), at, stop)
		at = stop
	}
	c.s.netq = append(c.s.netq, max(0, lat-srvNs))
}

// windowResult is one window's value of every metric it can produce.
type windowResult struct {
	values    map[string]float64
	attempted uint64
	failed    uint64
	saturated bool
}

func pctUs(sorted []int64, p float64) float64 { return percentile(sorted, p) / 1e3 }

// ratio is num/den, reading 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runWindow drives every client for dur against sys and reads the public
// counters at both edges. traced switches the span recorders on.
func runWindow(spec *workloadSpec, sys system, cs []*client, recs []*recorder, dur time.Duration, sz sizes) windowResult {
	for i, c := range cs {
		c.s.reset()
		c.rec = nil
		if recs != nil {
			c.rec = recs[i]
		}
	}
	sys.drain()
	// Every window starts from a collected heap, so each sees the same
	// garbage-collection pattern rather than a phase left by the last one.
	runtime.GC()
	before := readCounters(sys.registries())
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			spec.drive(sys, c, start, deadline, sz)
		}(c)
	}
	wg.Wait()
	end := start
	for _, c := range cs {
		if c.s.end.After(end) {
			end = c.s.end
		}
	}
	drainStart := time.Now()
	sys.drain()
	drained := time.Since(drainStart)
	runtime.ReadMemStats(&memAfter)
	after := readCounters(sys.registries())

	var all samples
	for _, c := range cs {
		all.merge(&c.s)
	}
	all.sort()
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	nvm := func(field string) float64 { return float64(after.sumNVM(field) - before.sumNVM(field)) }
	ops := float64(len(all.get) + len(all.put))
	puts := float64(len(all.put))
	elapsed := end.Sub(start).Seconds()
	v := map[string]float64{
		"ops_per_s":     ratio(ops, elapsed),
		"get_p50_us":    pctUs(all.get, 50),
		"get_p90_us":    pctUs(all.get, 90),
		"get_p99_us":    pctUs(all.get, 99),
		"put_p50_us":    pctUs(all.put, 50),
		"put_p90_us":    pctUs(all.put, 90),
		"put_p99_us":    pctUs(all.put, 99),
		"nvm_write_amp": ratio(nvm("bytes_written"), puts*float64(sz.valueSize)),

		"window.fences_per_put":             ratio(nvm("fences"), puts),
		"locktable.dependent_waits_per_put": ratio(delta("dependent_waits"), puts),
		"engine.drain_ms":                   float64(drained) / 1e6,
		"go.allocs_per_op":                  ratio(float64(memAfter.Mallocs-memBefore.Mallocs), ops),
		"go.gc_pause_ms":                    float64(memAfter.PauseTotalNs-memBefore.PauseTotalNs) / 1e6,
	}
	if spec.served {
		batcherMetrics(v, before, after, float64(all.attempted))
	}
	if spec.chained {
		v["chain.batch_size_mean"] = ratio(delta("batch_ops"), delta("batches"))
	}
	if len(all.netq) > 0 {
		phaseMetrics(v, &all)
	}
	res := windowResult{values: v, attempted: all.attempted, failed: all.failed}
	if spec.openLoop {
		v["client.req_p99_us"] = pctUs(all.requests(), 99)
		v["client.sched_late_p50_us"] = pctUs(all.late, 50)
		v["client.sched_late_p90_us"] = pctUs(all.late, 90)
		v["client.sched_late_p99_us"] = pctUs(all.late, 99)
		// An open-loop latency means something only while the system kept
		// up and the generator kept its schedule. The guard is on the
		// median lateness: the tail is the Go timer, which fires up to a
		// millisecond late whenever the process goes idle (README).
		res.saturated = v["ops_per_s"] < 0.99*sz.rate || v["client.sched_late_p50_us"] > 1000
	}
	return res
}

// batcherMetrics derives the server batcher's metrics from its registry's
// counters at the two edges of a window or a ladder rung.
func batcherMetrics(v map[string]float64, before, after counters, attempted float64) {
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	v["server.batch_size_mean"] = ratio(delta("batched_ops"), delta("batches"))
	v["server.batch_splits_per_kop"] = ratio(delta("batch_splits")*1000, attempted)
	v["server.shed_ratio"] = ratio(delta("shed"), attempted)
}

// phaseMetrics derives the server-phase and net_queue metrics from a traced
// serve window, or from the ladder's one-at-a-time TCP rung.
func phaseMetrics(v map[string]float64, s *samples) {
	ph := func(p transport.KVPhase, pct float64) float64 { return pctUs(s.phase[p], pct) }
	v["server.decode_p50_us"] = ph(transport.KVPhaseDecode, 50)
	v["server.admission_wait_p50_us"] = ph(transport.KVPhaseAdmissionWait, 50)
	v["server.batch_wait_p50_us"] = ph(transport.KVPhaseBatchWait, 50)
	v["server.batch_wait_p99_us"] = ph(transport.KVPhaseBatchWait, 99)
	v["server.engine_txn_p50_us"] = ph(transport.KVPhaseEngineTxn, 50)
	v["server.engine_txn_p99_us"] = ph(transport.KVPhaseEngineTxn, 99)
	v["server.order_wait_p50_us"] = ph(transport.KVPhaseOrderWait, 50)
	v["server.order_wait_p99_us"] = ph(transport.KVPhaseOrderWait, 99)
	v["client.net_queue_p50_us"] = pctUs(s.netq, 50)
	v["client.net_queue_p99_us"] = pctUs(s.netq, 99)
	if e := ph(transport.KVPhaseEngineTxn, 50); e > 0 {
		v["server.req_over_engine_p50"] = pctUs(s.requests(), 50) / e
	}
}
