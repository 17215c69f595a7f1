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
)

// NodeID names a replica endpoint.
type NodeID string

// Kind discriminates chain protocol messages.
type Kind int

// Message kinds.
const (
	// KindOp carries one transaction down the chain.
	KindOp Kind = iota
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
	// KindOpBatch carries several transactions down the chain in one
	// message (the head or a forwarding replica coalesced them). Seq is
	// the batch's highest sequence number; the per-op fields live in
	// Batch.
	KindOpBatch
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

// BatchedOp is one operation inside a KindOpBatch message, in chain order.
type BatchedOp struct {
	// Seq is the head-assigned sequence number.
	Seq uint64
	// Trace is the head-minted chain-wide trace id (0 when untraced).
	Trace uint64
	// Name is the registered operation name.
	Name string
	// Args is the operation's encoded argument payload.
	Args []byte
}

// Message is the single format for all chain traffic.
type Message struct {
	Kind   Kind
	From   NodeID
	ViewID uint64

	// Op fields.
	Seq  uint64
	Name string
	Args []byte
	// Trace is the chain-wide trace id minted by the head for KindOp and
	// echoed by KindTailAck; 0 when tracing is off.
	Trace uint64

	// Batch holds the per-op fields of a KindOpBatch message, in chain
	// order (ascending Seq).
	Batch []BatchedOp

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
