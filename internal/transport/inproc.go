package transport

import (
	"sync"
	"time"

	"kaminotx/internal/simtime"
)

// InProc is an in-process transport. Each registered node gets an inbox
// and a dispatcher goroutine; every delivery (send or call leg) is delayed
// by HopLatency to model the network.
type InProc struct {
	hop time.Duration

	mu     sync.RWMutex
	nodes  map[NodeID]*inbox
	closed bool
}

type inbox struct {
	h    Handler
	ch   chan *Message
	done chan struct{}
}

// NewInProc creates an in-process transport with the given per-hop latency.
func NewInProc(hopLatency time.Duration) *InProc {
	return &InProc{hop: hopLatency, nodes: make(map[NodeID]*inbox)}
}

// Register implements Transport.
func (t *InProc) Register(id NodeID, h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return unknown(id)
	}
	if old, ok := t.nodes[id]; ok {
		close(old.done)
	}
	ib := &inbox{h: h, ch: make(chan *Message, 1024), done: make(chan struct{})}
	t.nodes[id] = ib
	go func() {
		for {
			select {
			case m := <-ib.ch:
				ib.h(m)
			case <-ib.done:
				return
			}
		}
	}()
	return nil
}

// Unregister implements Transport.
func (t *InProc) Unregister(id NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ib, ok := t.nodes[id]; ok {
		close(ib.done)
		delete(t.nodes, id)
	}
}

func (t *InProc) lookup(id NodeID) (*inbox, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ib, ok := t.nodes[id]
	return ib, ok
}

// delay models one network hop: the sender is stalled for the hop latency,
// spent through simtime.Wait like every other simulated latency.
func (t *InProc) delay() { simtime.Wait(t.hop) }

// Send implements Transport.
func (t *InProc) Send(to NodeID, msg *Message) error {
	ib, ok := t.lookup(to)
	if !ok {
		return unknown(to)
	}
	t.delay()
	select {
	case ib.ch <- msg:
		return nil
	case <-ib.done:
		return unknown(to)
	}
}

// Call implements Transport. The request and reply each cost one hop. The
// handler runs on the caller's goroutine, which keeps recovery fetches
// simple and synchronous.
func (t *InProc) Call(to NodeID, msg *Message) (*Message, error) {
	ib, ok := t.lookup(to)
	if !ok {
		return nil, unknown(to)
	}
	t.delay()
	reply := ib.h(msg)
	t.delay()
	if reply == nil {
		reply = &Message{}
	}
	return reply, nil
}

// Close implements Transport.
func (t *InProc) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for id, ib := range t.nodes {
		close(ib.done)
		delete(t.nodes, id)
	}
}
