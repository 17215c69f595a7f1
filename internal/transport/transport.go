// Package transport carries chain-replication messages between replicas.
// The one implementation is an in-process transport with configurable
// per-hop latency (the benchmark substrate standing in for the paper's RDMA
// network — what matters to the results is the ratio of network hop latency
// to copy latency, which the knob preserves). A hop is latency, not work: a
// one-way message is delivered no earlier than one hop after it was sent,
// and its sender carries on meanwhile, as an RDMA sender that has posted a
// message does. The Transport interface is the seam the chain's tests wrap
// to intercept and drop messages.
package transport

import (
	"errors"
	"fmt"

	"kaminotx/internal/pqueue"
)

// NodeID names a replica endpoint.
type NodeID string

// Kind discriminates chain protocol messages.
type Kind int

// Message kinds. The zero Kind names no message, so a Message whose Kind
// was never set is one no replica acts on.
const (
	_ Kind = iota
	// KindOpBatch carries transactions down the chain: the records in
	// Batch, in chain order, one or more (the head or a forwarding replica
	// coalesced whatever had queued). Seq is the batch's highest sequence
	// number.
	KindOpBatch
	// KindTailAck is the tail's completion notice to the head.
	KindTailAck
	// KindCleanup propagates clean-up acknowledgments up the chain.
	KindCleanup
	// KindFetch requests Len bytes at offset Off of a neighbour's heap
	// (recovery: one object block with its header).
	KindFetch
	// KindFetchReply returns them in Payload.
	KindFetchReply
	// KindRead asks the tail for Key's value.
	KindRead
	// KindReadReply returns a found flag byte, then the value, in Payload.
	KindReadReply
	// KindError reports a remote failure.
	KindError
	// KindStateSnap asks a donor replica to freeze at a transaction
	// boundary and describe a heap snapshot for a joining replica: the
	// reply carries Snap (a nonce naming the frozen snapshot), Len (heap
	// image bytes), Seq (the snapshot's covered sequence floor), and
	// Batch (the donor's unexecuted input-queue suffix beyond Seq).
	KindStateSnap
	// KindStateChunk fetches Len bytes at offset Off of snapshot Snap's
	// heap image; the reply returns them in Payload.
	KindStateChunk
	// KindStateDone releases snapshot Snap, resuming the donor.
	KindStateDone
)

// Message is the single format for all chain traffic.
type Message struct {
	Kind   Kind
	From   NodeID
	ViewID uint64

	// Seq is the sequence number the message speaks for: the last record
	// of a KindOpBatch, the prefix a KindTailAck or KindCleanup covers,
	// a KindStateSnap reply's snapshot floor.
	Seq uint64
	// Key is the key a KindRead looks up.
	Key uint64

	// Batch holds the records of a KindOpBatch message, or of a
	// KindStateSnap reply, in chain order (ascending Seq).
	Batch []pqueue.Record

	// Payload is a reply's bytes: a heap range (KindFetch,
	// KindStateChunk) or a read's found flag and value.
	Payload []byte
	Err     string

	// Snap names one frozen snapshot on a state-transfer donor
	// (KindStateSnap / KindStateChunk / KindStateDone); Off and Len select
	// a byte range of the heap: of that snapshot's image for a
	// KindStateChunk, of the live heap for a KindFetch.
	Snap uint64
	Off  uint64
	Len  uint64
}

// Error converts a reply's Err field to an error.
func (m *Message) Error() error {
	if m.Err == "" {
		return nil
	}
	return errors.New(m.Err)
}

// Handler processes an incoming message. For Call requests it returns the
// reply; for one-way sends the return value is discarded.
type Handler func(msg *Message) *Message

// Transport moves messages.
type Transport interface {
	// Serve installs the handler for a local node. Must be called before
	// messages are sent to it. One goroutine per node handles its one-way
	// messages in arrival order; idle, if not nil, runs on that goroutine
	// each time a message has been handled and no other is waiting, and
	// again while it reports more work and none is, so each step of work a
	// handler leaves to it sees every message that queued before the step.
	Serve(id NodeID, h Handler, idle func() bool) error
	// Send delivers msg to `to` asynchronously (one-way), no earlier than
	// one hop after the call; it does not wait for the hop. Delivery is
	// reliable while the destination is registered, except that an
	// acknowledgment (KindTailAck, KindCleanup) meeting a full inbox is
	// dropped rather than waited for: acknowledgments are cumulative, and
	// the chain's repair ticker regenerates the last one. Sends to removed
	// nodes are dropped.
	Send(to NodeID, msg *Message) error
	// Call delivers msg and waits for the handler's reply.
	Call(to NodeID, msg *Message) (*Message, error)
	// Unregister removes a node (simulating its failure); queued and
	// future messages to it are dropped.
	Unregister(id NodeID)
	// Close shuts the transport down.
	Close()
}

// ErrUnknownNode reports a send to an unregistered node.
var ErrUnknownNode = errors.New("transport: unknown node")

func unknown(id NodeID) error { return fmt.Errorf("%w: %s", ErrUnknownNode, id) }
