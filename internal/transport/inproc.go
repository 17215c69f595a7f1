package transport

import (
	"sync"
	"time"

	"kaminotx/internal/simtime"
)

// inboxSize is how many messages a node's inbox holds before a Send waits.
const inboxSize = 1024

// InProc is an in-process transport. Each registered node gets an inbox
// and a delivery goroutine; every delivery (send or call leg) is delayed
// by HopLatency to model the network.
type InProc struct {
	hop time.Duration

	mu     sync.RWMutex
	nodes  map[NodeID]*inbox
	closed bool
}

type inbox struct {
	h    Handler
	idle func() bool
	ch   chan *Message
	done chan struct{}
}

// NewInProc creates an in-process transport with the given per-hop latency.
func NewInProc(hopLatency time.Duration) *InProc {
	return &InProc{hop: hopLatency, nodes: make(map[NodeID]*inbox)}
}

// Register is Serve with no idle hook.
func (t *InProc) Register(id NodeID, h Handler) error { return t.Serve(id, h, nil) }

// Serve implements Transport. The node's delivery goroutine hands each
// message to h in arrival order and, once h returns with the inbox empty,
// calls idle until it reports nothing more to do or a message arrives.
func (t *InProc) Serve(id NodeID, h Handler, idle func() bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return unknown(id)
	}
	if old, ok := t.nodes[id]; ok {
		close(old.done)
	}
	ib := &inbox{h: h, idle: idle, ch: make(chan *Message, inboxSize), done: make(chan struct{})}
	t.nodes[id] = ib
	go func() {
		for {
			select {
			case m := <-ib.ch:
				ib.h(m)
				for ib.idle != nil && len(ib.ch) == 0 && ib.idle() {
				}
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

// Send implements Transport. It waits while the destination's inbox is
// full, except for an acknowledgment (KindTailAck, KindCleanup), which is
// dropped instead: a replica sends those upstream from the goroutine that
// receives from upstream, and two neighbours each waiting for room in the
// other's inbox would wait forever.
func (t *InProc) Send(to NodeID, msg *Message) error {
	ib, ok := t.lookup(to)
	if !ok {
		return unknown(to)
	}
	t.delay()
	if msg.Kind == KindTailAck || msg.Kind == KindCleanup {
		select {
		case ib.ch <- msg:
		default:
		}
		return nil
	}
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
