package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testTransportSendAndCall(t *testing.T, tr Transport, a, b NodeID) {
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
