package transport

import (
	"fmt"
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

// TestInProcLatency: each of twenty one-way messages is handled no earlier
// than one hop after its Send began, and a call takes at least two hops,
// at the harness's 3 µs hop (the polling wait) and at 300 µs (the sleeping
// one). The sender does not wait the hop out: at a 20 ms hop each of twenty
// back-to-back Sends returns in under one, where a sender that waited would
// spend 400 ms. (At 300 µs the host itself stalls a goroutine that long
// about once in a few thousand Sends, more under -race.)
func TestInProcLatency(t *testing.T) {
	const sends, slowHop = 20, 20 * time.Millisecond
	for _, hop := range []time.Duration{3 * time.Microsecond, 300 * time.Microsecond, slowHop} {
		tr := NewInProc(hop)
		var handled [sends]time.Time
		all := make(chan struct{})
		if err := tr.Register("n", func(m *Message) *Message {
			if m.Kind == KindOpBatch {
				handled[m.Seq] = time.Now()
				if m.Seq == sends-1 {
					close(all)
				}
			}
			return &Message{}
		}); err != nil {
			t.Fatal(err)
		}
		var start [sends]time.Time
		for i := range start {
			start[i] = time.Now()
			if err := tr.Send("n", &Message{Kind: KindOpBatch, Seq: uint64(i)}); err != nil {
				t.Fatal(err)
			}
			if sent := time.Since(start[i]); hop == slowHop && sent >= hop {
				t.Errorf("send %d with %v hops took %v to return, want < one hop", i, hop, sent)
			}
		}
		<-all
		for i := range start {
			if at := handled[i].Sub(start[i]); at < hop {
				t.Errorf("send %d with %v hops was handled after %v", i, hop, at)
			}
		}
		for i := 0; i < sends && hop != slowHop; i++ {
			begin := time.Now()
			if _, err := tr.Call("n", &Message{Kind: KindRead}); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(begin); el < 2*hop {
				t.Errorf("call with %v hops took %v, want >= %v", hop, el, 2*hop)
			}
		}
		tr.Close()
	}
}

// TestInProcSendsArriveInOrder: with a hop to wait out and two senders
// interleaving, each sender's messages are handled in the order it sent
// them.
func TestInProcSendsArriveInOrder(t *testing.T) {
	tr := NewInProc(3 * time.Microsecond)
	defer tr.Close()
	const n = 500
	next := map[NodeID]uint64{} // touched only by the delivery goroutine
	done := make(chan struct{})
	handled := 0
	if err := tr.Register("sink", func(m *Message) *Message {
		if m.Seq != next[m.From] {
			t.Errorf("from %s: got seq %d, want %d", m.From, m.Seq, next[m.From])
		}
		next[m.From] = m.Seq + 1
		if handled++; handled == 2*n {
			close(done)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, from := range []NodeID{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < n; i++ {
				if err := tr.Send("sink", &Message{Kind: KindOpBatch, From: from, Seq: i}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("not all messages delivered")
	}
}

// TestInProcUnregisterDropsMessages: once Unregister returns, nothing
// queued for the node is handled, and a later Send fails. Each of twenty
// nodes has a handler held on its first message and 99 more queued behind
// it when it leaves; a delivery loop that let a queued message race the
// node's departure would hand one over about half the time, so twenty nodes
// catch it all but once in a million runs.
func TestInProcUnregisterDropsMessages(t *testing.T) {
	tr := NewInProc(0)
	defer tr.Close()
	const nodes, queued = 20, 99
	release := make(chan struct{})
	var counts [nodes]atomic.Int32
	for i := range counts {
		id := NodeID(fmt.Sprint("x", i))
		held := make(chan struct{})
		count := &counts[i]
		if err := tr.Register(id, func(m *Message) *Message {
			if count.Add(1) == 1 {
				close(held)
				<-release
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= queued; j++ {
			if err := tr.Send(id, &Message{Kind: KindOpBatch}); err != nil {
				t.Fatal(err)
			}
			if j == 0 {
				<-held
			}
		}
		tr.Unregister(id)
		if err := tr.Send(id, &Message{}); err == nil {
			t.Errorf("send to unregistered node %s did not error", id)
		}
	}
	close(release)
	time.Sleep(50 * time.Millisecond)
	for i := range counts {
		if n := counts[i].Load() - 1; n != 0 {
			t.Errorf("node x%d handled %d of its %d queued messages after Unregister", i, n, queued)
		}
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

// BenchmarkInProcSend is what a one-way send costs its sender at the
// harness's 3 µs hop: the hop is the receiver's to wait out, so this is the
// enqueue alone (plus waits for room when the sink falls behind).
func BenchmarkInProcSend(b *testing.B) {
	tr := NewInProc(3 * time.Microsecond)
	defer tr.Close()
	if err := tr.Register("sink", func(m *Message) *Message { return nil }); err != nil {
		b.Fatal(err)
	}
	msg := &Message{Kind: KindOpBatch}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Send("sink", msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInProcCall is the gated benchmark's transport.inproc_call rung:
// a round trip carrying 1 KiB to a handler that echoes it, at the harness's
// 3 µs hop — both hops are the caller's to wait out, so about 6 µs.
func BenchmarkInProcCall(b *testing.B) {
	tr := NewInProc(3 * time.Microsecond)
	defer tr.Close()
	if err := tr.Register("echo", func(m *Message) *Message { return m }); err != nil {
		b.Fatal(err)
	}
	msg := &Message{Kind: KindRead, Payload: make([]byte, 1024)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Call("echo", msg); err != nil {
			b.Fatal(err)
		}
	}
}
