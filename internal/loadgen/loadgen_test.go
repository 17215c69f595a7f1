package loadgen

import (
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"kaminotx/internal/kvstore"
	"kaminotx/internal/server"
	"kaminotx/internal/transport"
	"kaminotx/kamino"
)

const (
	testKeys  = 400
	testValue = 64
)

// startServer serves a fresh in-memory store on a loopback port.
func startServer(t *testing.T) string {
	t.Helper()
	pool, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	store, err := kvstore.Create(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(ln, server.Options{Store: store})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv.Addr().String()
}

func TestPreloadThenVerify(t *testing.T) {
	addr := startServer(t)
	if err := Preload(addr, testKeys, testValue, 3); err != nil {
		t.Fatalf("preload: %v", err)
	}
	n, err := Verify(addr, testKeys, testValue, 3)
	if err != nil || n != testKeys {
		t.Fatalf("Verify = %d, %v; want %d keys and no error", n, err, testKeys)
	}

	// One overwritten value is one lost acknowledged write: Verify must
	// fail and say which key.
	const victim = 137
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("", victim, make([]byte, testValue)); err != nil {
		t.Fatal(err)
	}
	_, err = Verify(addr, testKeys, testValue, 3)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("key %d:", victim)) {
		t.Fatalf("Verify after overwriting key %d = %v; want an error naming the key", victim, err)
	}
}

func TestRunClosedLoop(t *testing.T) {
	addr := startServer(t)
	if err := Preload(addr, testKeys, testValue, 2); err != nil {
		t.Fatalf("preload: %v", err)
	}
	for _, window := range []int{1, 64} {
		res, err := Run(Config{
			Addr: addr, Conns: 2, Window: window, Duration: 200 * time.Millisecond,
			Keys: testKeys, ValueSize: testValue, Seed: 7,
		})
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if res.Errors != 0 || res.Issued == 0 {
			t.Errorf("window %d: issued %d, errors %d; want some and none", window, res.Issued, res.Errors)
		}
		// Every issued request is counted once: as a success, a shed, or
		// an error, and each success has one latency sample.
		if res.OK+res.Busy+res.Errors != res.Issued {
			t.Errorf("window %d: ok %d + busy %d + errors %d != issued %d",
				window, res.OK, res.Busy, res.Errors, res.Issued)
		}
		if res.Hist.Count() != res.OK {
			t.Errorf("window %d: %d latency samples for %d successes", window, res.Hist.Count(), res.OK)
		}
		if res.Throughput <= 0 {
			t.Errorf("window %d: throughput %v", window, res.Throughput)
		}
	}
}

func TestRunOpenLoop(t *testing.T) {
	addr := startServer(t)
	if err := Preload(addr, testKeys, testValue, 2); err != nil {
		t.Fatalf("preload: %v", err)
	}
	const rate = 2000.0
	res, err := Run(Config{
		Addr: addr, Conns: 2, Rate: rate, Duration: 500 * time.Millisecond,
		Keys: testKeys, ValueSize: testValue, Seed: 7, Breakdown: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.OK+res.Busy != res.Issued {
		t.Errorf("issued %d: ok %d, busy %d, errors %d", res.Issued, res.OK, res.Busy, res.Errors)
	}
	// The arrival schedule is fixed in advance: what was offered does not
	// depend on how fast the server answered.
	if math.Abs(res.OfferedRate-rate) > 0.05*rate {
		t.Errorf("offered %.0f/s, asked for %.0f/s", res.OfferedRate, rate)
	}
	if res.NetQueue == nil || res.NetQueue.Count() == 0 {
		t.Error("no net_queue samples with Breakdown on")
	}
	for _, ph := range []transport.KVPhase{transport.KVPhaseAdmissionWait,
		transport.KVPhaseBatchWait, transport.KVPhaseEngineTxn, transport.KVPhaseOrderWait} {
		if res.Phase[ph].Count() == 0 {
			t.Errorf("no %s samples with Breakdown on", ph)
		}
	}
}
