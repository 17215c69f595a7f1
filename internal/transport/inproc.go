package transport

import (
	"sync"
	"time"

	"kaminotx/internal/simtime"
)

// inboxSize is how many messages a node's inbox holds before a Send waits.
const inboxSize = 1024

// InProc is an in-process transport. Each registered node gets an inbox
// and a delivery goroutine. A one-way message is delivered no earlier than
// HopLatency after its Send began, and the sender does not wait for that:
// the delivery goroutine waits out whatever of the hop is left when it
// reaches the message, usually nothing. A Call's caller waits both legs.
type InProc struct {
	hop time.Duration

	mu     sync.RWMutex
	nodes  map[NodeID]*inbox
	closed bool
}

type inbox struct {
	h    Handler
	idle func() bool
	ch   chan delivery
	done chan struct{}
}

// delivery is a queued message and the earliest time it may be handled.
type delivery struct {
	m   *Message
	due time.Time
}

// NewInProc creates an in-process transport with the given per-hop latency.
func NewInProc(hopLatency time.Duration) *InProc {
	return &InProc{hop: hopLatency, nodes: make(map[NodeID]*inbox)}
}

// Register is Serve with no idle hook.
func (t *InProc) Register(id NodeID, h Handler) error { return t.Serve(id, h, nil) }

// Serve implements Transport. The node's delivery goroutine hands each
// message to h in arrival order, once its hop has elapsed and unless the
// node has left, and, once h returns with the inbox empty, calls idle until
// it reports nothing more to do or a message arrives.
func (t *InProc) Serve(id NodeID, h Handler, idle func() bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return unknown(id)
	}
	if old, ok := t.nodes[id]; ok {
		close(old.done)
	}
	ib := &inbox{h: h, idle: idle, ch: make(chan delivery, inboxSize), done: make(chan struct{})}
	t.nodes[id] = ib
	go func() {
		for {
			select {
			case d := <-ib.ch:
				simtime.Wait(time.Until(d.due))
				// A node that left while the message was queued or in its
				// hop never sees it: select chooses at random among ready
				// cases, so only this check makes Unregister drop the queue.
				select {
				case <-ib.done:
					return
				default:
				}
				ib.h(d.m)
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

// Send implements Transport. It stamps the message due one hop from now and
// queues it without waiting out the hop. It waits while the destination's
// inbox is full, except for an acknowledgment (KindTailAck, KindCleanup),
// which is dropped instead: a replica sends those upstream from the
// goroutine that receives from upstream, and two neighbours each waiting
// for room in the other's inbox would wait forever.
func (t *InProc) Send(to NodeID, msg *Message) error {
	ib, ok := t.lookup(to)
	if !ok {
		return unknown(to)
	}
	d := delivery{m: msg, due: time.Now().Add(t.hop)}
	if msg.Kind == KindTailAck || msg.Kind == KindCleanup {
		select {
		case ib.ch <- d:
		default:
		}
		return nil
	}
	select {
	case ib.ch <- d:
		return nil
	case <-ib.done:
		return unknown(to)
	}
}

// Call implements Transport. The request and reply each cost one hop, both
// spent on the caller's goroutine through simtime.Wait: the caller is
// blocked on the reply anyway. The handler runs on the caller's goroutine
// too, which keeps recovery fetches simple and synchronous.
func (t *InProc) Call(to NodeID, msg *Message) (*Message, error) {
	ib, ok := t.lookup(to)
	if !ok {
		return nil, unknown(to)
	}
	simtime.Wait(t.hop)
	reply := ib.h(msg)
	simtime.Wait(t.hop)
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
