// Package transport carries chain-replication messages between replicas.
// The one implementation is an in-process transport with configurable
// per-hop latency (the benchmark substrate standing in for the paper's RDMA
// network — what matters to the results is the ratio of network hop latency
// to copy latency, which the knob preserves); the Transport interface is
// the seam the chain's tests wrap to intercept and drop messages.
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
	// KindFetch requests object block images (recovery).
	KindFetch
	// KindFetchReply returns them.
	KindFetchReply
	// KindRead asks the tail to execute a read-only operation.
	KindRead
	// KindReadReply returns its result.
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
	// Name and Args select a KindRead's registered operation and carry
	// its encoded arguments.
	Name string
	Args []byte

	// Batch holds the records of a KindOpBatch message, or of a
	// KindStateSnap reply, in chain order (ascending Seq).
	Batch []pqueue.Record

	// Fetch fields: parallel slices describing object blocks.
	Objs    []uint64
	Classes []uint32
	Blocks  [][]byte

	// Read / generic reply payload.
	Payload []byte
	Err     string

	// State-transfer fields (KindStateSnap / KindStateChunk /
	// KindStateDone): Snap names one frozen snapshot on the donor, Off and
	// Len select a byte range of its heap image.
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
	// Register installs the handler for a local node. Must be called
	// before messages are sent to it.
	Register(id NodeID, h Handler) error
	// Send delivers msg to `to` asynchronously (one-way). Delivery is
	// reliable while the destination is registered; sends to removed
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
