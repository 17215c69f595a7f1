package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// KV service wire protocol (kaminod / kaminoload). One connection carries a
// stream of KVRequest frames one way and a stream of KVResponse frames the
// other; the server answers every request exactly once, IN REQUEST ORDER,
// so a client may pipeline arbitrarily many requests and match responses
// positionally (the echoed ID is a cross-check, not a reordering
// mechanism).
//
// A frame is a little-endian u32 body length, then the body. Integers are
// uvarints (varint: zigzag, for the signed Max, N and PhaseNs), and a byte
// string is a uvarint length and its bytes. A flags byte names the
// optional fields present; absent fields are zero. Every value has exactly
// one encoding — a flag is set only for a non-zero field (non-nil for the
// slices), and varints are minimal — and a decoder rejects anything else,
// so a frame that decodes re-encodes to the same bytes.
//
//	request:  kind u8 | flags u8 | ID | Key
//	          [tenant: bytes] [max: varint] [value: bytes]
//	          flags: 1 tenant, 2 max, 4 Breakdown, 8 value
//	response: status u8 | flags u8 | ID
//	          [err: bytes] [value: bytes] [n: varint]
//	          [scan: count, count × (key, value bytes)]
//	          [phases: count, count × varint]
//	          flags: 1 Found, 2 err, 4 value, 8 n, 16 scan, 32 phases
//
// A body longer than MaxKVFrame is refused by both sides. No trace id
// crosses the wire: a tracing server mints its own for each request.

// KVKind discriminates KV service requests.
type KVKind uint8

// KV request kinds.
const (
	// KVPing answers immediately; used for liveness and RTT probes.
	KVPing KVKind = iota
	// KVGet reads Key.
	KVGet
	// KVPut stores Value under Key. Acknowledged only after the backing
	// transaction committed durably.
	KVPut
	// KVDelete removes Key.
	KVDelete
	// KVScan returns up to Max pairs starting at Key.
	KVScan
	// KVCount returns the tenant's key count.
	KVCount
)

// String names the kind for logs and metrics.
func (k KVKind) String() string {
	switch k {
	case KVPing:
		return "ping"
	case KVGet:
		return "get"
	case KVPut:
		return "put"
	case KVDelete:
		return "delete"
	case KVScan:
		return "scan"
	case KVCount:
		return "count"
	default:
		return fmt.Sprintf("kvkind(%d)", uint8(k))
	}
}

// KVStatus classifies a response for the client's retry logic.
type KVStatus uint8

// KV response statuses.
const (
	// KVOK is success.
	KVOK KVStatus = iota
	// KVErrBusy sheds the request: the server's admission queue was full.
	// The operation was NOT executed; back off and retry.
	KVErrBusy
	// KVErrShutdown rejects the request: the server is draining. The
	// operation was NOT executed; reconnect elsewhere or later.
	KVErrShutdown
	// KVErrBadRequest rejects a malformed request (unknown tenant, key out
	// of range, oversized value, unknown kind). Retrying cannot succeed.
	KVErrBadRequest
	// KVErrInternal reports an engine failure executing the operation.
	KVErrInternal
)

// String names the status.
func (s KVStatus) String() string {
	switch s {
	case KVOK:
		return "ok"
	case KVErrBusy:
		return "busy"
	case KVErrShutdown:
		return "shutdown"
	case KVErrBadRequest:
		return "bad-request"
	case KVErrInternal:
		return "internal"
	default:
		return fmt.Sprintf("kvstatus(%d)", uint8(s))
	}
}

// KVPhase indexes one slice of a request's server-side latency
// breakdown. The phases tile the server's request wall time: decode off
// the wire, wait for an admission token, wait in the write batcher (or,
// for a read, for the response writer to reach it), the engine
// transaction itself, wait for in-order response delivery, and the
// response encode. KVPhaseCount sizes KVResponse.PhaseNs; the indices are
// part of the wire contract.
type KVPhase uint8

// Server-side request phases, in critical-path order.
const (
	// KVPhaseDecode is the read and decode of the request frame (includes
	// time the connection sat idle waiting for bytes, so it is reported
	// for diagnosis but excluded from queueing analysis).
	KVPhaseDecode KVPhase = iota
	// KVPhaseAdmissionWait is decode-end to admission-token acquired.
	KVPhaseAdmissionWait
	// KVPhaseBatchWait is token-acquired to engine-transaction start:
	// write-batcher queueing for writes; for reads, the wait for the
	// connection's response writer to reach the read, by which time every
	// earlier request on the connection has completed.
	KVPhaseBatchWait
	// KVPhaseEngineTxn is the engine call (batched writes share one
	// transaction; every member reports the full transaction duration).
	KVPhaseEngineTxn
	// KVPhaseOrderWait is completion to response-writer dequeue (head-of
	// -line wait behind earlier responses on the same connection).
	KVPhaseOrderWait
	// KVPhaseRespWrite is the response encode + flush. A response cannot
	// carry its own encode time, so PhaseNs reports 0 here; the server's
	// metrics and trace spans record it.
	KVPhaseRespWrite
	// KVPhaseCount is the length of a full PhaseNs vector.
	KVPhaseCount
)

// String names the phase: the one name the server gives it in its phase
// timers, its trace spans and /debug/requests.
func (p KVPhase) String() string {
	switch p {
	case KVPhaseDecode:
		return "decode"
	case KVPhaseAdmissionWait:
		return "admission_wait"
	case KVPhaseBatchWait:
		return "batch_wait"
	case KVPhaseEngineTxn:
		return "engine_txn"
	case KVPhaseOrderWait:
		return "order_wait"
	case KVPhaseRespWrite:
		return "resp_write"
	default:
		return fmt.Sprintf("kvphase(%d)", uint8(p))
	}
}

// KVRequest is one client request.
type KVRequest struct {
	// ID is a client-chosen correlation id echoed in the response.
	ID uint64
	// Kind selects the operation.
	Kind KVKind
	// Tenant names the keyspace ("" = the default tenant).
	Tenant string
	// Key is the tenant-local key (48 usable bits).
	Key uint64
	// Value is the payload for KVPut.
	Value []byte
	// Max bounds a KVScan's result count.
	Max int
	// Breakdown asks the server to return its per-phase latency split in
	// KVResponse.PhaseNs.
	Breakdown bool
}

// KVResponse is one server response.
type KVResponse struct {
	// ID echoes the request's correlation id.
	ID uint64
	// Status classifies the outcome.
	Status KVStatus
	// Err carries the failure detail for non-OK statuses.
	Err string
	// Found reports presence for KVGet / KVDelete.
	Found bool
	// Value is KVGet's result.
	Value []byte
	// Keys and Values are KVScan's result pairs (parallel slices).
	Keys []uint64
	// Values holds the scan payloads.
	Values [][]byte
	// N is KVCount's result.
	N int
	// PhaseNs is the server-side latency breakdown in nanoseconds,
	// indexed by KVPhase, present only when the request set Breakdown.
	// PhaseNs[KVPhaseRespWrite] is always 0 (a response cannot time its
	// own encode).
	PhaseNs []int64
}

// Error converts a response's status and detail to an error (nil for OK).
func (r *KVResponse) Error() error {
	if r.Status == KVOK {
		return nil
	}
	if r.Err != "" {
		return fmt.Errorf("kv: %s: %s", r.Status, r.Err)
	}
	return fmt.Errorf("kv: %s", r.Status)
}

// MaxKVFrame bounds a frame's body in bytes. An encoder refuses a larger
// frame before writing any of it, and a decoder refuses a larger length
// prefix before allocating for it.
const MaxKVFrame = 64 << 20

// ErrKVFrameTooLarge reports a frame whose body would exceed MaxKVFrame.
var ErrKVFrameTooLarge = errors.New("kvwire: frame exceeds MaxKVFrame")

// errKVMalformed reports a body that is not the one encoding of any frame.
var errKVMalformed = errors.New("kvwire: malformed frame")

// kvRetain is the largest buffer a codec keeps between frames: a larger
// frame's buffer is dropped once done with, so one wide scan does not pin
// its size for the life of the connection.
const kvRetain = 64 << 10

// Request flag bits.
const (
	reqTenant byte = 1 << iota
	reqMax
	reqBreakdown
	reqValue
	reqKnown = 1<<iota - 1
)

// Response flag bits.
const (
	respFound byte = 1 << iota
	respErr
	respValue
	respN
	respScan
	respPhases
	respKnown = 1<<iota - 1
)

// KVEncoder writes one side's stream of KV frames, one Write per frame.
// Safe for a single writer; callers serialize.
type KVEncoder struct {
	w   io.Writer
	buf []byte // the next frame is built here, reused
}

// NewKVEncoder writes frames to w.
func NewKVEncoder(w io.Writer) *KVEncoder { return &KVEncoder{w: w} }

// Request writes one request frame.
func (e *KVEncoder) Request(req *KVRequest) error {
	var flags byte
	if req.Tenant != "" {
		flags |= reqTenant
	}
	if req.Max != 0 {
		flags |= reqMax
	}
	if req.Breakdown {
		flags |= reqBreakdown
	}
	if req.Value != nil {
		flags |= reqValue
	}
	b := append(e.buf[:0], 0, 0, 0, 0, byte(req.Kind), flags)
	b = binary.AppendUvarint(b, req.ID)
	b = binary.AppendUvarint(b, req.Key)
	if flags&reqTenant != 0 {
		b = appendBytes(b, req.Tenant)
	}
	if flags&reqMax != 0 {
		b = binary.AppendVarint(b, int64(req.Max))
	}
	if flags&reqValue != 0 {
		b = appendBytes(b, req.Value)
	}
	return e.write(b)
}

// Response writes one response frame. Keys and Values must be the same
// length.
func (e *KVEncoder) Response(resp *KVResponse) error {
	var flags byte
	if resp.Found {
		flags |= respFound
	}
	if resp.Err != "" {
		flags |= respErr
	}
	if resp.Value != nil {
		flags |= respValue
	}
	if resp.N != 0 {
		flags |= respN
	}
	if resp.Keys != nil || resp.Values != nil {
		if len(resp.Keys) != len(resp.Values) {
			return fmt.Errorf("kvwire: scan response has %d keys and %d values", len(resp.Keys), len(resp.Values))
		}
		flags |= respScan
	}
	if resp.PhaseNs != nil {
		flags |= respPhases
	}
	b := append(e.buf[:0], 0, 0, 0, 0, byte(resp.Status), flags)
	b = binary.AppendUvarint(b, resp.ID)
	if flags&respErr != 0 {
		b = appendBytes(b, resp.Err)
	}
	if flags&respValue != 0 {
		b = appendBytes(b, resp.Value)
	}
	if flags&respN != 0 {
		b = binary.AppendVarint(b, int64(resp.N))
	}
	if flags&respScan != 0 {
		b = binary.AppendUvarint(b, uint64(len(resp.Keys)))
		for i, k := range resp.Keys {
			b = binary.AppendUvarint(b, k)
			b = appendBytes(b, resp.Values[i])
		}
	}
	if flags&respPhases != 0 {
		b = binary.AppendUvarint(b, uint64(len(resp.PhaseNs)))
		for _, ns := range resp.PhaseNs {
			b = binary.AppendVarint(b, ns)
		}
	}
	return e.write(b)
}

// write fills in the length prefix of the frame built in b and writes it.
func (e *KVEncoder) write(b []byte) error {
	e.buf = b[:0]
	if cap(b) > kvRetain {
		e.buf = nil
	}
	if n := len(b) - 4; n > MaxKVFrame {
		return fmt.Errorf("%w: %d-byte body", ErrKVFrameTooLarge, n)
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	_, err := e.w.Write(b)
	return err
}

// appendBytes appends a length-prefixed byte string.
func appendBytes[T string | []byte](b []byte, s T) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// KVDecoder reads one side's stream of KV frames. A decoded value never
// aliases the decoder's buffer: every slice and string it hands out is the
// caller's to keep.
type KVDecoder struct {
	r   io.Reader
	hdr [4]byte
	buf []byte // the current frame's body, reused
}

// NewKVDecoder reads frames from r. It makes two reads per frame, so r
// should be buffered.
func NewKVDecoder(r io.Reader) *KVDecoder { return &KVDecoder{r: r} }

// Request reads one request frame into req, overwriting every field. A
// clean end of stream before the frame is io.EOF.
func (d *KVDecoder) Request(req *KVRequest) error {
	body, err := d.frame()
	if err != nil {
		return err
	}
	c := kvCursor{b: body}
	kind := c.byte()
	flags := c.byte()
	c.require(flags&^reqKnown == 0)
	*req = KVRequest{Kind: KVKind(kind), Breakdown: flags&reqBreakdown != 0}
	req.ID = c.uvarint()
	req.Key = c.uvarint()
	if flags&reqTenant != 0 {
		req.Tenant = string(c.bytes())
		c.require(req.Tenant != "")
	}
	if flags&reqMax != 0 {
		req.Max = int(c.varint())
		c.require(req.Max != 0)
	}
	if flags&reqValue != 0 {
		req.Value = bytes.Clone(c.bytes())
	}
	return c.err("request")
}

// Response reads one response frame into resp, overwriting every field. A
// clean end of stream before the frame is io.EOF.
func (d *KVDecoder) Response(resp *KVResponse) error {
	body, err := d.frame()
	if err != nil {
		return err
	}
	c := kvCursor{b: body}
	status := c.byte()
	flags := c.byte()
	c.require(flags&^respKnown == 0)
	*resp = KVResponse{Status: KVStatus(status), Found: flags&respFound != 0}
	resp.ID = c.uvarint()
	if flags&respErr != 0 {
		resp.Err = string(c.bytes())
		c.require(resp.Err != "")
	}
	if flags&respValue != 0 {
		resp.Value = bytes.Clone(c.bytes())
	}
	if flags&respN != 0 {
		resp.N = int(c.varint())
		c.require(resp.N != 0)
	}
	if flags&respScan != 0 {
		n := c.count(2) // a key and a length, one byte each at least
		resp.Keys = make([]uint64, n)
		resp.Values = make([][]byte, n)
		for i := range resp.Keys {
			resp.Keys[i] = c.uvarint()
			resp.Values[i] = bytes.Clone(c.bytes())
		}
	}
	if flags&respPhases != 0 {
		resp.PhaseNs = make([]int64, c.count(1))
		for i := range resp.PhaseNs {
			resp.PhaseNs[i] = c.varint()
		}
	}
	return c.err("response")
}

// frame reads the next frame's body. It is valid until the next call.
func (d *KVDecoder) frame() ([]byte, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(d.hdr[:]))
	if n > MaxKVFrame {
		return nil, fmt.Errorf("%w: length prefix %d", ErrKVFrameTooLarge, n)
	}
	if n > max(cap(d.buf), kvRetain) {
		// Grown as its bytes arrive, so a length prefix alone cannot make
		// the decoder allocate, and not kept.
		b, err := io.ReadAll(io.LimitReader(d.r, int64(n)))
		if err == nil && len(b) < n {
			err = io.ErrUnexpectedEOF
		}
		return b, err
	}
	if cap(d.buf) < n {
		d.buf = make([]byte, n)
	}
	b := d.buf[:n]
	if _, err := io.ReadFull(d.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the length prefix promised a body
		}
		return nil, err
	}
	return b, nil
}

// kvCursor reads a frame body front to back. A read past the end, a
// non-minimal varint or a failed require marks the body bad and yields
// zeros from then on; err reports it, and any bytes left over.
type kvCursor struct {
	b   []byte
	bad bool
}

func (c *kvCursor) fail() {
	c.bad, c.b = true, nil
}

// require marks the body bad unless ok: an unknown flag, or a flag set for
// a field that is zero.
func (c *kvCursor) require(ok bool) {
	if !ok {
		c.fail()
	}
}

func (c *kvCursor) byte() byte {
	if len(c.b) == 0 {
		c.fail()
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

// uvarint reads a minimal uvarint.
func (c *kvCursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 || n != (bits.Len64(v|1)+6)/7 {
		c.fail()
		return 0
	}
	c.b = c.b[n:]
	return v
}

// varint reads a zigzag varint.
func (c *kvCursor) varint() int64 {
	u := c.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// bytes reads a length-prefixed byte string, aliasing the body.
func (c *kvCursor) bytes() []byte {
	n := c.uvarint()
	if n > uint64(len(c.b)) {
		c.fail()
		return nil
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v
}

// count reads an element count, refusing one whose elements, at least size
// bytes each, the rest of the body cannot hold — so a count never sizes an
// allocation past the frame.
func (c *kvCursor) count(size int) int {
	n := c.uvarint()
	if n > uint64(len(c.b)/size) {
		c.fail()
		return 0
	}
	return int(n)
}

func (c *kvCursor) err(what string) error {
	if c.bad || len(c.b) != 0 {
		return fmt.Errorf("%w: %s", errKVMalformed, what)
	}
	return nil
}
