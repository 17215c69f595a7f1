package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testTransportSendAndCall(t *testing.T, tr *InProc, a, b NodeID) {
	t.Helper()
	var got atomic.Uint64
	if err := tr.Register(a, func(m *Message) *Message {
		got.Store(m.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, func(m *Message) *Message {
		return &Message{Kind: KindReadReply, Seq: m.Seq + 1, Payload: []byte("pong")}
	}); err != nil {
		t.Fatal(err)
	}

	if err := tr.Send(a, &Message{Kind: KindOpBatch, Seq: 42}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() != 42 {
		if time.Now().After(deadline) {
			t.Fatal("one-way send never delivered")
		}
		time.Sleep(time.Millisecond)
	}

	reply, err := tr.Call(b, &Message{Kind: KindRead, Seq: 7})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Seq != 8 || string(reply.Payload) != "pong" {
		t.Errorf("reply = %+v", reply)
	}

	if err := tr.Send("nowhere", &Message{}); err == nil {
		t.Error("send to unknown node did not error")
	}
}

func TestInProcSendAndCall(t *testing.T) {
	tr := NewInProc(0)
	defer tr.Close()
	testTransportSendAndCall(t, tr, "a", "b")
}

// TestInProcLatency holds a one-way send to at least one hop and a call to
// at least two, at the harness's 3 µs hop (the polling wait) and at 300 µs
// (the sleeping one).
func TestInProcLatency(t *testing.T) {
	for _, hop := range []time.Duration{3 * time.Microsecond, 300 * time.Microsecond} {
		tr := NewInProc(hop)
		if err := tr.Register("n", func(m *Message) *Message { return &Message{} }); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			start := time.Now()
			if err := tr.Send("n", &Message{}); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(start); el < hop {
				t.Errorf("send with %v hops took %v", hop, el)
			}
			start = time.Now()
			if _, err := tr.Call("n", &Message{}); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(start); el < 2*hop {
				t.Errorf("call with %v hops took %v, want >= %v", hop, el, 2*hop)
			}
		}
		tr.Close()
	}
}

func TestInProcUnregisterDropsMessages(t *testing.T) {
	tr := NewInProc(0)
	defer tr.Close()
	var count atomic.Int32
	if err := tr.Register("x", func(m *Message) *Message {
		count.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tr.Unregister("x")
	if err := tr.Send("x", &Message{}); err == nil {
		t.Error("send to unregistered node did not error")
	}
}

func TestInProcConcurrentSends(t *testing.T) {
	tr := NewInProc(0)
	defer tr.Close()
	var sum atomic.Uint64
	var wg sync.WaitGroup
	done := make(chan struct{})
	var received atomic.Int32
	if err := tr.Register("sink", func(m *Message) *Message {
		sum.Add(m.Seq)
		if received.Add(1) == 100 {
			close(done)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < 10; i++ {
				if err := tr.Send("sink", &Message{Seq: base + i}); err != nil {
					t.Error(err)
				}
			}
		}(uint64(g) * 100)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("not all messages delivered")
	}
}

// TestInProcIdleAfterBacklog: the idle hook runs on the delivery goroutine
// once the inbox is empty, not after each message — messages that queued
// while the handler was busy are all handled before it runs — and runs
// again while it reports more work, until it reports none.
func TestInProcIdleAfterBacklog(t *testing.T) {
	tr := NewInProc(0)
	defer tr.Close()
	held, release := make(chan struct{}), make(chan struct{})
	var handled atomic.Int32
	idles := make(chan int32, 8)
	const steps = 3 // the idle hook has three steps of work to do
	left := steps
	if err := tr.Serve("n", func(m *Message) *Message {
		if handled.Add(1) == 1 {
			close(held)
			<-release
		}
		return nil
	}, func() bool {
		idles <- handled.Load()
		left--
		return left > 0
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := tr.Send("n", &Message{Kind: KindOpBatch}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-held
		}
	}
	close(release)
	for step := 0; step < steps; step++ {
		select {
		case n := <-idles:
			if n != 6 {
				t.Errorf("idle step %d ran after %d messages, want all 6", step, n)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("idle ran %d times, want %d", step, steps)
		}
	}
	select {
	case n := <-idles:
		t.Errorf("idle ran again (after %d messages) with no work left and nothing delivered", n)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestInProcAcksNeverWait: with the destination's inbox full, an op batch
// waits for room but an acknowledgment is dropped at once.
func TestInProcAcksNeverWait(t *testing.T) {
	tr := NewInProc(0)
	defer tr.Close()
	release := make(chan struct{})
	if err := tr.Register("n", func(m *Message) *Message { <-release; return nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= inboxSize; i++ { // one in the handler, inboxSize queued
		if err := tr.Send("n", &Message{Kind: KindOpBatch}); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []Kind{KindTailAck, KindCleanup} {
		sent := make(chan error, 1)
		go func() { sent <- tr.Send("n", &Message{Kind: k}) }()
		select {
		case err := <-sent:
			if err != nil {
				t.Errorf("kind %d into a full inbox: %v", k, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("kind %d waited for room in a full inbox", k)
		}
	}
	blocked := make(chan struct{})
	go func() {
		_ = tr.Send("n", &Message{Kind: KindOpBatch})
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Error("an op batch into a full inbox did not wait")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-blocked
}
