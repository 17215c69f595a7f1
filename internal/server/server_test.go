package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kaminotx/internal/kvstore"
	"kaminotx/internal/obs"
	"kaminotx/internal/trace"
	"kaminotx/internal/transport"
	"kaminotx/kamino"
)

// startServer builds an in-memory store and serves it on a loopback
// listener, returning the server and its address.
func startServer(t testing.TB, opts Options) (*Server, string) {
	t.Helper()
	if opts.Store == nil {
		p, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 32 << 20, Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		st, err := kvstore.Create(p, 16)
		if err != nil {
			t.Fatal(err)
		}
		opts.Store = st
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(ln, opts)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

func dial(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBasicOps(t *testing.T) {
	_, addr := startServer(t, Options{})
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("", 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("", 1)
	if err != nil || !ok || string(v) != "one" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := c.Get("", 2); ok {
		t.Error("absent key found")
	}
	found, err := c.Delete(1)
	if err != nil || !found {
		t.Fatalf("Delete = %v %v", found, err)
	}
	if found, _ := c.Delete(1); found {
		t.Error("second delete reported found")
	}
	if _, ok, _ := c.Get("", 1); ok {
		t.Error("deleted key found")
	}
}

// TestOutOfRangeKeyIsBadRequest: a key wider than the keyspace's 48 bits
// is the client's error, answered bad-request by puts, deletes and gets
// alike, not an engine failure.
func TestOutOfRangeKeyIsBadRequest(t *testing.T) {
	_, addr := startServer(t, Options{})
	c := dial(t, addr)
	for _, req := range []transport.KVRequest{
		{Kind: transport.KVPut, Key: kvstore.MaxTenantKey + 1, Value: []byte("x")},
		{Kind: transport.KVDelete, Key: kvstore.MaxTenantKey + 1},
		{Kind: transport.KVGet, Key: kvstore.MaxTenantKey + 1},
	} {
		call, err := c.Send(&req)
		if err != nil {
			t.Fatal(err)
		}
		if <-call.Done; call.Err != nil || call.Resp.Status != transport.KVErrBadRequest {
			t.Errorf("%s of an out-of-range key: %v, status %s; want bad-request", req.Kind, call.Err, call.Resp.Status)
		}
	}
}

// TestServesDefaultTenantFilledBelowTheWire: keys inserted through the
// default tenant's view, as an owner preloads a store, are what the wire
// reads and overwrites.
func TestServesDefaultTenantFilledBelowTheWire(t *testing.T) {
	srv, addr := startServer(t, Options{})
	tenant, err := srv.Tenants().Ensure("default")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 16; k++ {
		if err := tenant.Insert(k, []byte(fmt.Sprint("below-", k))); err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, addr)
	for k := uint64(0); k < 16; k++ {
		if v, ok, err := c.Get("", k); err != nil || !ok || string(v) != fmt.Sprint("below-", k) {
			t.Fatalf("Get(%d) = %q %v %v, want the value inserted below the wire", k, v, ok, err)
		}
	}
	if err := c.Put("", 3, []byte("over the wire")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := tenant.Read(3); err != nil || !ok || string(v) != "over the wire" {
		t.Fatalf("tenant.Read(3) = %q %v %v after a put over the wire", v, ok, err)
	}
}

// TestPipelineOrder floods one connection with asynchronous requests and
// checks responses come back in request order with matching correlation
// ids, and that a pipelined get observes the connection's earlier put.
func TestPipelineOrder(t *testing.T) {
	_, addr := startServer(t, Options{Window: 16})
	c := dial(t, addr)
	const n = 500
	calls := make([]*Call, 0, 2*n)
	for i := 0; i < n; i++ {
		put, err := c.Send(&transport.KVRequest{Kind: transport.KVPut, Key: uint64(i), Value: []byte(fmt.Sprint(i))})
		if err != nil {
			t.Fatal(err)
		}
		get, err := c.Send(&transport.KVRequest{Kind: transport.KVGet, Key: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, put, get)
	}
	for i, call := range calls {
		resp, err := call.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if i%2 == 1 { // the get issued right after the put of key i/2
			want := fmt.Sprint(i / 2)
			if !resp.Found || string(resp.Value) != want {
				t.Fatalf("read-your-writes: get %d = %q found=%v, want %q", i/2, resp.Value, resp.Found, want)
			}
		}
	}
}

// TestBatching drives concurrent writers and checks the batcher actually
// coalesced multiple operations per engine transaction.
func TestBatching(t *testing.T) {
	srv, addr := startServer(t, Options{})
	const conns = 4
	const perConn = 200
	errs := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		go func(ci int) {
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			calls := make([]*Call, 0, perConn)
			for i := 0; i < perConn; i++ {
				key := uint64(ci*perConn + i)
				call, err := c.Send(&transport.KVRequest{Kind: transport.KVPut, Key: key, Value: []byte{byte(ci)}})
				if err != nil {
					errs <- err
					return
				}
				calls = append(calls, call)
			}
			for _, call := range calls {
				if _, err := call.Wait(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(ci)
	}
	for i := 0; i < conns; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.cBatchOps.Load(); got == 0 {
		t.Error("no operations were batched")
	} else {
		t.Logf("batches=%d batched_ops=%d splits=%d",
			srv.cBatches.Load(), got, srv.cSplits.Load())
	}
	// Every write must be readable regardless of how batches split.
	c := dial(t, addr)
	for k := uint64(0); k < conns*perConn; k++ {
		if v, ok, err := c.Get("", k); err != nil || !ok || len(v) != 1 || v[0] != byte(k/perConn) {
			t.Fatalf("Get(%d) = %v %v %v after batching", k, v, ok, err)
		}
	}
}

// TestLonePutNotDelayed: the batcher never waits for company, whatever
// BatchDelay says — a lone put is acknowledged as soon as it has committed.
func TestLonePutNotDelayed(t *testing.T) {
	_, addr := startServer(t, Options{BatchDelay: time.Second})
	c := dial(t, addr)
	start := time.Now()
	if err := c.Put("", 1, []byte("alone")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("lone put took %v: the batcher waited", d)
	}
}

// TestWriterFlushesBeforeStalledSlot: a finished response must reach the
// client while the connection's next request is still executing, not sit in
// the response writer's buffer behind it.
func TestWriterFlushesBeforeStalledSlot(t *testing.T) {
	srv, addr := startServer(t, Options{})
	c := dial(t, addr)
	srv.writeMu.Lock() // stalls the batcher's next transaction
	unlock := sync.OnceFunc(srv.writeMu.Unlock)
	defer unlock()
	ping, err := c.Send(&transport.KVRequest{Kind: transport.KVPing})
	if err != nil {
		t.Fatal(err)
	}
	put, err := c.Send(&transport.KVRequest{Kind: transport.KVPut, Key: 1, Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ping.Done:
	case <-time.After(2 * time.Second):
		t.Error("ping response held behind the stalled put")
	}
	select {
	case <-put.Done:
		t.Error("put acknowledged while the store was locked")
	default:
	}
	unlock()
	if _, err := put.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := ping.Wait(); err != nil {
		t.Fatal(err)
	}
}

// countingConn counts the writes made to a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestClientCoalescesSends: a pipelined burst shares socket writes, every
// response still arrives, and a lone request is never left in the buffer.
func TestClientCoalescesSends(t *testing.T) {
	_, addr := startServer(t, Options{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := &countingConn{Conn: raw}
	c := NewClient(conn)
	t.Cleanup(func() { c.Close() })
	if err := c.Put("", 1, []byte("v")); err != nil { // a lone Do
		t.Fatal(err)
	}
	before := conn.writes.Load()
	calls := make([]*Call, 64)
	for i := range calls {
		if calls[i], err = c.Send(&transport.KVRequest{Kind: transport.KVGet, Key: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i, call := range calls {
		if resp, err := call.Wait(); err != nil || !resp.Found {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	writes := conn.writes.Load() - before
	t.Logf("64 pipelined sends took %d writes", writes)
	if writes >= 64 {
		t.Errorf("64 pipelined sends took %d writes, want fewer than 64", writes)
	}
	for i := 0; i < 3; i++ { // lone Dos after the burst: no flush is missed
		if v, ok, err := c.Get("", 1); err != nil || !ok || string(v) != "v" {
			t.Fatalf("Get after burst = %q %v %v", v, ok, err)
		}
	}
}

// TestClientConcurrentSendsAndClose: four goroutines send on one client
// while it is closed under them. Every call that was sent ends, with its
// response or with an error.
func TestClientConcurrentSendsAndClose(t *testing.T) {
	_, addr := startServer(t, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const senders, perSender = 4, 200
	calls := make(chan *Call, senders*perSender)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var last *Call
			for i := 0; i < perSender; i++ {
				if g == 0 && i == perSender/2 {
					<-last.Done // some answers first, then the close
					c.Close()
				}
				call, err := c.Send(&transport.KVRequest{Kind: transport.KVPut, Key: uint64(g*perSender + i), Value: []byte("v")})
				if err != nil {
					return // closed
				}
				calls <- call
				last = call
			}
		}(g)
	}
	wg.Wait()
	close(calls)
	var answered, failed int
	for call := range calls {
		select {
		case <-call.Done:
		case <-time.After(5 * time.Second):
			t.Fatal("a call never ended")
		}
		switch {
		case call.Err != nil:
			failed++
		case call.Resp.Status == transport.KVOK:
			answered++
		default:
			t.Errorf("call ended with status %v", call.Resp.Status)
		}
	}
	t.Logf("%d answered, %d failed by the close", answered, failed)
	if answered == 0 {
		t.Error("no call was answered before the close")
	}
	if _, err := c.Send(&transport.KVRequest{Kind: transport.KVPing}); err == nil {
		t.Error("Send after Close succeeded")
	}
}

// TestQueuedReadsEndWhenConnectionDies: reads queued behind a stalled put
// are executed by the response writer; when the connection dies first, the
// writer's teardown must fail them, or their admission tokens, the drain's
// wait and the connection's goroutines are never released. The first get's
// response is larger than the writer's buffer, so its write reaches the
// dead socket while the other gets are still queued.
func TestQueuedReadsEndWhenConnectionDies(t *testing.T) {
	srv, addr := startServer(t, Options{})
	base := runtime.NumGoroutine()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 8<<10)
	if err := c.Put("", 1, big); err != nil {
		t.Fatal(err)
	}
	srv.writeMu.Lock() // stalls the batcher's next transaction
	unlock := sync.OnceFunc(srv.writeMu.Unlock)
	defer unlock()
	calls := make([]*Call, 0, 9)
	put, err := c.Send(&transport.KVRequest{Kind: transport.KVPut, Key: 2, Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	calls = append(calls, put)
	for i := 0; i < 8; i++ {
		get, err := c.Send(&transport.KVRequest{Kind: transport.KVGet, Key: 1})
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, get)
	}
	for deadline := time.Now().Add(5 * time.Second); len(srv.admit) < len(calls); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests admitted", len(srv.admit), len(calls))
		}
		time.Sleep(time.Millisecond)
	}
	srv.connMu.Lock()
	for conn := range srv.conns {
		conn.Close()
	}
	srv.connMu.Unlock()
	c.Close()
	for i, call := range calls {
		select {
		case <-call.Done:
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d never ended", i)
		}
	}
	unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := len(srv.admit); n != 0 {
		t.Errorf("%d admission tokens still held", n)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the connection", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedding verifies overload is shed with an explicit busy error
// rather than queued: with an admission budget of 1 and a slow pipe of
// requests in flight, some concurrent requests must observe KVErrBusy.
func TestShedding(t *testing.T) {
	srv, addr := startServer(t, Options{MaxInflight: 1, Window: 64})
	c := dial(t, addr)
	calls := make([]*Call, 0, 64)
	for i := 0; i < 64; i++ {
		call, err := c.Send(&transport.KVRequest{Kind: transport.KVPut, Key: uint64(i), Value: []byte("v")})
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call)
	}
	busy := 0
	for _, call := range calls {
		<-call.Done
		if call.Err != nil {
			t.Fatal(call.Err)
		}
		switch call.Resp.Status {
		case transport.KVOK:
		case transport.KVErrBusy:
			busy++
		default:
			t.Fatalf("unexpected status %v: %s", call.Resp.Status, call.Resp.Err)
		}
	}
	if busy == 0 {
		t.Skip("no request observed the full admission queue (timing-dependent)")
	}
	if srv.cShed.Load() == 0 {
		t.Error("shed counter not incremented")
	}
}

// TestDrainZeroLoss is the graceful-drain audit: every PUT acknowledged
// before and during a drain must be present after closing the pool,
// reopening it from its directory, and re-counting — zero acknowledged
// writes lost.
func TestDrainZeroLoss(t *testing.T) {
	dir, err := os.MkdirTemp("", "kaminod-drain-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	pool, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 32 << 20, Dir: dir, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := kvstore.Create(pool, 16)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Options{Store: st})

	// A writer streams puts; the main goroutine drains mid-stream.
	acked := make(chan uint64, 4096)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c, err := Dial(addr)
		if err != nil {
			return
		}
		defer c.Close()
		for k := uint64(0); ; k++ {
			if err := c.Put("", k, []byte("durable")); err != nil {
				return // shutdown or connection closed: unacked, ignore
			}
			acked <- k
		}
	}()
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-writerDone
	close(acked)
	srv.Close()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := kamino.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	st2, err := kvstore.Open(reopened)
	if err != nil {
		t.Fatal(err)
	}
	tenants, err := kvstore.LoadTenants(st2)
	if err != nil {
		t.Fatal(err)
	}
	ps, ok := tenants.Lookup("default")
	if !ok {
		t.Fatal("default tenant lost across drain+reopen")
	}
	nAcked := 0
	for k := range acked {
		nAcked++
		v, ok, err := ps.Read(k)
		if err != nil || !ok || string(v) != "durable" {
			t.Fatalf("acked key %d lost after drain+reopen: %q %v %v", k, v, ok, err)
		}
	}
	if nAcked == 0 {
		t.Fatal("writer acked nothing before drain")
	}
	t.Logf("audited %d acknowledged writes across drain+reopen", nAcked)
}

// TestDrainRejectsNewWork checks that requests arriving after a drain
// begins get an explicit shutdown status (not a hang or a silent drop).
func TestDrainRejectsNewWork(t *testing.T) {
	srv, addr := startServer(t, Options{})
	c := dial(t, addr)
	if err := c.Put("", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if !srv.Draining() {
		t.Error("Draining() = false after Drain")
	}
	if _, err := Dial(addr); err == nil {
		t.Error("listener still accepting after drain")
	}
}

// TestTraceContinuity drives one put through a server and engine sharing
// a single recorder, and checks the pieces join into one timeline under the
// trace id the server minted, which the request's slow-ring record names:
// all six server phases carry that id, the req_tx event links it to the
// engine transaction, the response's PhaseNs matches the record, and the
// attributed phases cover at least 90% of the server-measured wall time. The FlushLatency makes engine work dominate so
// scheduling gaps cannot eat the 10% slack.
func TestTraceContinuity(t *testing.T) {
	rec := trace.NewRecorder(1 << 14)
	p, err := kamino.Create(kamino.Options{
		Mode: kamino.ModeSimple, HeapSize: 32 << 20, Strict: true,
		FlushLatency: 200 * time.Microsecond, Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	st, err := kvstore.Create(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Options{Store: st, Trace: rec})
	resp, err := dial(t, addr).Do(&transport.KVRequest{
		Kind: transport.KVPut, Key: 7, Value: []byte("traced"), Breakdown: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The slow-ring insert lands after the response flushes, racing our
	// read: poll briefly. Every span is emitted before it.
	var r SlowRecord
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if recs := srv.Slow().Snapshot(); len(recs) == 1 {
			r = recs[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no slow-ring record for the put")
		}
	}
	if r.Trace == 0 {
		t.Fatal("a tracing server minted no trace id")
	}
	if r.Kind != "put" || r.Bytes != len("traced") {
		t.Errorf("slow record misdescribes the request: %+v", r)
	}
	// The response and the record read one vector; only resp_write, which
	// a response cannot carry, differs.
	want := r.Phases
	want[transport.KVPhaseRespWrite] = 0
	if !slices.Equal(resp.PhaseNs, want[:]) {
		t.Errorf("response PhaseNs %v, slow record %v", resp.PhaseNs, r.Phases)
	}
	spans := map[string]bool{}
	var linked uint64
	for _, ev := range rec.Events() {
		if ev.Trace == r.Trace && ev.Kind == trace.KindSpan {
			spans[ev.Phase] = true
		}
		if ev.Trace == r.Trace && ev.Kind == trace.KindReqTx {
			linked = ev.TxID
		}
	}
	for ph := transport.KVPhase(0); ph < transport.KVPhaseCount; ph++ {
		if !spans[ph.String()] {
			t.Errorf("no %s span under trace %#x (spans %v)", ph, r.Trace, spans)
		}
	}

	// The linked txid must belong to a real engine transaction that the
	// shared recorder saw commit.
	var engine bool
	for _, ev := range rec.Events() {
		if linked != 0 && ev.TxID == linked && ev.Kind == trace.KindCommitMarker {
			engine = true
		}
	}
	if !engine {
		t.Fatalf("no engine commit_marker under linked txid %d", linked)
	}

	// Attribution must account for the server-measured wall time.
	var sum int64
	for _, ns := range r.Phases {
		sum += ns
	}
	if sum < r.WallNs*9/10 {
		t.Errorf("phases sum %dns < 90%% of wall %dns (%v)", sum, r.WallNs, r.Phases)
	}
}

// TestClientNamesAddNoSeries: a request kind is the client's to choose, so
// an unknown one never becomes a metric series. Requests of kinds the
// server does not serve — the retired scan and count among them — are
// answered as bad requests, and afterwards the server registry holds the
// same counter and phase names it held before them.
func TestClientNamesAddNoSeries(t *testing.T) {
	reg := obs.New("server")
	_, addr := startServer(t, Options{Obs: reg})
	c := dial(t, addr)
	names := func() []string {
		snap := reg.Snapshot()
		out := snap.SortedCounterNames()
		for _, ph := range snap.SortedPhases() {
			out = append(out, "phase "+string(ph))
		}
		return out
	}
	if err := c.Put("", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	before := names()
	for i := 0; i < 20; i++ {
		kind := transport.KVDelete + 1 + transport.KVKind(i)
		call, err := c.Send(&transport.KVRequest{Kind: kind, Key: 1})
		if err != nil {
			t.Fatal(err)
		}
		if <-call.Done; call.Err != nil || call.Resp.Status != transport.KVErrBadRequest {
			t.Fatalf("%s request: %v, status %s; want bad-request", kind, call.Err, call.Resp.Status)
		}
	}
	if err := c.Put("", 2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if after := names(); !slices.Equal(after, before) {
		t.Errorf("client-chosen request kinds changed the registry's series\nbefore %v\nafter  %v", before, after)
	}
}

// BenchmarkLoopbackPut is one put at a time over loopback TCP: a full
// client round trip with no pipelining and nothing to batch, on the pool
// shape the gated benchmark serves (kamino-simple, 2 appliers). It is the
// in-repo twin of the benchmark ladder's client.tcp_put_ns.
func BenchmarkLoopbackPut(b *testing.B) {
	p, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 64 << 20, ApplierWorkers: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	st, err := kvstore.Create(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	_, addr := startServer(b, Options{Store: st})
	c := dial(b, addr)
	const keys = 1024
	val := make([]byte, 1024)
	for k := uint64(0); k < keys; k++ {
		if err := c.Put("", k, val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put("", uint64(i)%keys, val); err != nil {
			b.Fatal(err)
		}
	}
}
