// Package pqueue implements the persistent operation ring a chain replica
// keeps in NVM (paper §5.1). One ring holds what the paper calls two queues:
// the in-flight range of transactions executed here and handed on, awaiting
// the tail's acknowledgment, and behind it the pending range of transactions
// received but not yet executed and handed on.
//
// The ring is a byte ring over an NVM region whose cursors
//
//	head <= done <= tail
//
// all live in the one header cache line: [head, done) is in flight,
// [done, tail) is pending. A record is durable before the append that
// carried it returns; executing and acknowledging only move cursors, each
// move one persist of the header line, so a crash re-presents whatever a
// cursor had not durably passed (consumers deduplicate by sequence number).
package pqueue

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"kaminotx/internal/nvm"
)

const (
	hdrSize  = 64
	qMagic   = 0x4b515545 // "KQUE"
	recAlign = 8

	hOffMagic = 0
	hOffCap   = 8  // u64 data capacity
	hOffHead  = 16 // u64 logical byte offset of oldest record
	hOffTail  = 24 // u64 logical byte offset past newest record
	hOffSeq   = 32 // u64 highest sequence number ever enqueued
	hOffAcked = 40 // u64 highest sequence number acknowledged complete
	hOffDone  = 48 // u64 logical byte offset of oldest pending record

	// The cursors: one persist covers them all, and because they share a
	// cache line a power failure keeps all of one persist's stores or none.
	hOffCursors = hOffHead
	cursorsLen  = hOffDone + 8 - hOffHead

	// A record is its header, then name and args, padded to recAlign.
	rOffSize    = 0  // u32 aligned length, header included
	rOffSeq     = 4  // u64 sequence number
	rOffNameLen = 12 // u16 name length
	rOffArgsLen = 14 // u32 args length
	recHdr      = 24 // the 18 header bytes, padded to recAlign
)

// Record is one queued operation.
type Record struct {
	Seq  uint64
	Name string
	Args []byte
}

// Queue is a persistent FIFO of records with an executed-through cursor.
type Queue struct {
	reg *nvm.Region

	mu      sync.Mutex
	cap     uint64
	head    uint64 // logical offsets; physical = offset % cap + hdrSize
	done    uint64
	tail    uint64
	lastSeq uint64 // highest seq ever enqueued (duplicate-delivery filter)
	acked   uint64 // highest seq acknowledged globally complete (persistent)
	dirty   bool   // a cursor was stored since the last header persist

	// scratch is append's encoding buffer, kept for the next append.
	scratch []byte
}

// Errors.
var (
	ErrFull     = errors.New("pqueue: queue full")
	ErrEmpty    = errors.New("pqueue: queue empty")
	ErrBadMagic = errors.New("pqueue: region is not a formatted queue")
)

func capacityOf(reg *nvm.Region) uint64 {
	if reg.Size() <= hdrSize {
		return 0
	}
	return uint64(reg.Size()-hdrSize) / recAlign * recAlign
}

// Format initializes a queue using all of reg beyond the header.
func Format(reg *nvm.Region) (*Queue, error) {
	capacity := capacityOf(reg)
	if capacity < 1024 {
		return nil, fmt.Errorf("pqueue: region too small (%d bytes)", reg.Size())
	}
	if err := reg.Zero(0, hdrSize); err != nil {
		return nil, err
	}
	if err := reg.Store64(hOffMagic, qMagic); err != nil {
		return nil, err
	}
	if err := reg.Store64(hOffCap, capacity); err != nil {
		return nil, err
	}
	if err := reg.Persist(0, hdrSize); err != nil {
		return nil, err
	}
	return &Queue{reg: reg, cap: capacity}, nil
}

// Attach reopens a formatted queue, restoring the persistent cursors. An
// image whose cursors are out of order, or whose records do not chain from
// head through done to tail, is rejected rather than trusted.
func Attach(reg *nvm.Region) (*Queue, error) {
	var h [hdrSize / 8]uint64
	for i := range h {
		v, err := reg.Load64(i * 8)
		if err != nil {
			return nil, err
		}
		h[i] = v
	}
	if h[hOffMagic/8] != qMagic {
		return nil, ErrBadMagic
	}
	q := &Queue{
		reg: reg, cap: h[hOffCap/8],
		head: h[hOffHead/8], done: h[hOffDone/8], tail: h[hOffTail/8],
		lastSeq: h[hOffSeq/8], acked: h[hOffAcked/8],
	}
	if q.cap == 0 || q.cap != capacityOf(reg) {
		return nil, fmt.Errorf("pqueue: corrupt capacity %d for a %d-byte region", q.cap, reg.Size())
	}
	// Logical offsets only grow; one within reach of wrapping uint64 was
	// never written by an append.
	if q.head > q.done || q.done > q.tail || q.tail-q.head > q.cap || q.tail > 1<<62 {
		return nil, fmt.Errorf("pqueue: corrupt cursors head=%d done=%d tail=%d cap=%d", q.head, q.done, q.tail, q.cap)
	}
	if q.acked > q.lastSeq {
		return nil, fmt.Errorf("pqueue: corrupt acked cursor %d > lastSeq %d", q.acked, q.lastSeq)
	}
	onBoundary, maxSeq := q.done == q.tail, uint64(0)
	end, err := q.scan(q.head, func(off uint64, h recHeader) bool {
		onBoundary = onBoundary || off == q.done
		maxSeq = max(maxSeq, h.seq)
		return true
	})
	if err != nil {
		return nil, err
	}
	if end != q.tail || !onBoundary || maxSeq > q.lastSeq {
		return nil, fmt.Errorf("pqueue: corrupt image: records chain to %d, not the tail; or done=%d is no record boundary; or record seq %d > lastSeq %d", end, q.done, maxSeq, q.lastSeq)
	}
	return q, nil
}

// LastSeq returns the highest sequence number ever enqueued (persistent).
// Chain replicas drop re-delivered records with Seq <= LastSeq.
func (q *Queue) LastSeq() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.lastSeq
}

// store sets one cursor, in memory and in the header line; flush makes
// every cursor stored since the last one durable with a single persist.
func (q *Queue) store(off int, field *uint64, v uint64) error {
	if *field == v {
		return nil
	}
	*field = v
	q.dirty = true
	return q.reg.Store64(off, v)
}

func (q *Queue) flush() error {
	if !q.dirty {
		return nil
	}
	q.dirty = false
	return q.reg.Persist(hOffCursors, cursorsLen)
}

// SeedSeq durably raises the duplicate-delivery floor to at least seq
// without enqueuing anything. A replica that joins after state transfer
// seeds its ring with the snapshot's sequence number so re-forwarded
// records already covered by the transferred image are dropped as
// duplicates rather than re-executed.
func (q *Queue) SeedSeq(seq uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if seq <= q.lastSeq {
		return nil
	}
	if err := q.store(hOffSeq, &q.lastSeq, seq); err != nil {
		return err
	}
	return q.flush()
}

// Acked returns the highest sequence number recorded as globally complete
// (persistent; see AckThrough).
func (q *Queue) Acked() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.acked
}

// AckThrough records that every sequence number <= seq is globally complete
// and prunes the acknowledged prefix from the front of the ring (OnvaKV's
// head-prunable file, applied to the ring). The floor and the head cursor
// are stored into the header line and persisted once: 8-byte stores reach a
// line in program order and a power failure keeps or drops a line whole, so
// the floor is durable no later than the head that relies on it. Unlike
// DropThrough's, the floor survives reboots: recovery can tell "forwarded
// but maybe incomplete" from "confirmed complete". Pruning does not stop at
// done — an acknowledgment can overtake the sender's own MarkDone — so
// the caller must not acknowledge past what it has executed.
func (q *Queue) AckThrough(seq uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if seq > q.lastSeq {
		seq = q.lastSeq
	}
	if seq > q.acked {
		if err := q.store(hOffAcked, &q.acked, seq); err != nil {
			return err
		}
	}
	return q.dropThroughLocked(seq)
}

// Usage reports the bytes each of the ring's two ranges occupies: in
// flight (executed and handed on, unacknowledged) and pending (received,
// not yet executed and handed on).
func (q *Queue) Usage() (inflight, pending uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.done - q.head, q.tail - q.done
}

// Span describes one of the ring's ranges: how many records it holds and
// the sequence numbers of its oldest and newest (0 and 0 when empty).
type Span struct {
	Records     int
	First, Last uint64
}

// Spans describes both ranges, in flight and pending, from the record
// headers alone: it decodes no name or arguments and allocates nothing.
func (q *Queue) Spans() (inflight, pending Span, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, err = q.scan(q.head, func(off uint64, h recHeader) bool {
		s := &pending
		if off < q.done {
			s = &inflight
		}
		if s.Records == 0 {
			s.First = h.seq
		}
		s.Records++
		s.Last = h.seq
		return true
	})
	return inflight, pending, err
}

// Capacity returns the ring's data capacity in bytes.
func (q *Queue) Capacity() uint64 {
	return q.cap
}

// Size returns the bytes r takes in a ring.
func Size(r Record) uint64 {
	return recSize(r)
}

func recSize(r Record) uint64 {
	n := uint64(recHdr + len(r.Name) + len(r.Args))
	return (n + recAlign - 1) / recAlign * recAlign
}

// span splits the n bytes at logical offset off into their physical
// extents: one, or two when they wrap around the ring's end.
func (q *Queue) span(off uint64, n int) (phys, first int) {
	phys = int(off%q.cap) + hdrSize
	first = int(q.cap) + hdrSize - phys
	if first > n {
		first = n
	}
	return phys, first
}

// write copies p at logical offset off, handling ring wrap-around.
func (q *Queue) write(off uint64, p []byte) error {
	phys, first := q.span(off, len(p))
	if err := q.reg.Write(phys, p[:first]); err != nil || first == len(p) {
		return err
	}
	return q.reg.Write(hdrSize, p[first:])
}

func (q *Queue) persist(off uint64, n int) error {
	phys, first := q.span(off, n)
	if err := q.reg.Flush(phys, first); err != nil {
		return err
	}
	if first < n {
		if err := q.reg.Flush(hdrSize, n-first); err != nil {
			return err
		}
	}
	q.reg.Fence()
	return nil
}

// read fills p from logical offset off.
func (q *Queue) read(off uint64, p []byte) error {
	phys, first := q.span(off, len(p))
	if err := q.reg.Read(phys, p[:first]); err != nil || first == len(p) {
		return err
	}
	return q.reg.Read(hdrSize, p[first:])
}

// encodeRecord serializes r into buf, which must be recSize(r) bytes.
func encodeRecord(buf []byte, r Record) {
	binary.LittleEndian.PutUint32(buf[rOffSize:], uint32(len(buf)))
	binary.LittleEndian.PutUint64(buf[rOffSeq:], r.Seq)
	binary.LittleEndian.PutUint16(buf[rOffNameLen:], uint16(len(r.Name)))
	binary.LittleEndian.PutUint32(buf[rOffArgsLen:], uint32(len(r.Args)))
	copy(buf[recHdr:], r.Name)
	copy(buf[recHdr+len(r.Name):], r.Args)
}

// AppendBatch durably appends every record in recs to the pending range as
// one persist epoch: all records are written contiguously at the tail and
// flushed under a single fence, then the header line with the tail cursor
// and lastSeq is persisted — two fences total regardless of len(recs), where
// per-record appends would pay two each. Either every record becomes
// durable (the tail cursor moved past them all) or none does (a crash before
// the cursor persist leaves the old tail, and recovery never reads past it).
func (q *Queue) AppendBatch(recs []Record) error {
	return q.append(recs, false)
}

// AppendExecuted is AppendBatch for records their appender has already
// executed and is about to hand on — the chain's head: done moves with the
// tail in the same header persist, so the records enter the in-flight range
// directly. The pending range must be empty.
func (q *Queue) AppendExecuted(recs []Record) error {
	return q.append(recs, true)
}

func (q *Queue) append(recs []Record, executed bool) error {
	if len(recs) == 0 {
		return nil
	}
	var total uint64
	for _, r := range recs {
		if len(r.Name) > 1<<15 {
			return fmt.Errorf("pqueue: name too long (%d bytes)", len(r.Name))
		}
		total += recSize(r)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if executed && q.done != q.tail {
		return fmt.Errorf("pqueue: AppendExecuted behind %d pending bytes", q.tail-q.done)
	}
	if total > q.cap-(q.tail-q.head) {
		return fmt.Errorf("%w: need %d bytes, %d free", ErrFull, total, q.cap-(q.tail-q.head))
	}
	q.scratch = slices.Grow(q.scratch[:0], int(total))
	buf := q.scratch[:total]
	clear(buf) // encodeRecord leaves the padding as it finds it
	off, maxSeq := uint64(0), q.lastSeq
	for _, r := range recs {
		sz := recSize(r)
		encodeRecord(buf[off:off+sz], r)
		off += sz
		maxSeq = max(maxSeq, r.Seq)
	}
	if err := q.write(q.tail, buf); err != nil {
		return err
	}
	if err := q.persist(q.tail, len(buf)); err != nil {
		return err
	}
	// lastSeq, then tail, then done: like moveHead's, every prefix of the
	// stores is a header Attach accepts (a floor above every record; the
	// records pending), should a line ever reach the device between them.
	if err := q.store(hOffSeq, &q.lastSeq, maxSeq); err != nil {
		return err
	}
	if err := q.store(hOffTail, &q.tail, q.tail+total); err != nil {
		return err
	}
	if executed {
		if err := q.store(hOffDone, &q.done, q.tail); err != nil {
			return err
		}
	}
	return q.flush()
}

// recHeader is a decoded record header.
type recHeader struct {
	size, seq        uint64
	nameLen, argsLen int
}

// headerAt reads and validates the header of the record at off, which must
// lie in [head, tail): a record never extends past the tail.
func (q *Queue) headerAt(off uint64) (recHeader, error) {
	var b [recHdr]byte
	if q.tail-off < recHdr {
		return recHeader{}, fmt.Errorf("pqueue: corrupt record at %d (%d bytes before the tail)", off, q.tail-off)
	}
	if err := q.read(off, b[:]); err != nil {
		return recHeader{}, err
	}
	h := recHeader{
		size:    uint64(binary.LittleEndian.Uint32(b[rOffSize:])),
		seq:     binary.LittleEndian.Uint64(b[rOffSeq:]),
		nameLen: int(binary.LittleEndian.Uint16(b[rOffNameLen:])),
		argsLen: int(binary.LittleEndian.Uint32(b[rOffArgsLen:])),
	}
	if h.size < recHdr || h.size%recAlign != 0 || h.size > q.tail-off || uint64(recHdr+h.nameLen+h.argsLen) > h.size {
		return recHeader{}, fmt.Errorf("pqueue: corrupt record at %d (size %d)", off, h.size)
	}
	return h, nil
}

// scan visits record headers — never bodies — from the record boundary
// from toward the tail, until visit returns false; it returns the offset of
// the record it stopped at, or past the last one.
func (q *Queue) scan(from uint64, visit func(off uint64, h recHeader) bool) (uint64, error) {
	for from < q.tail {
		h, err := q.headerAt(from)
		if err != nil {
			return from, err
		}
		if !visit(from, h) {
			break
		}
		from += h.size
	}
	return from, nil
}

// skip returns the offset of the first record at or after from whose
// sequence number exceeds seq, or the tail.
func (q *Queue) skip(from, seq uint64) (uint64, error) {
	return q.scan(from, func(_ uint64, h recHeader) bool { return h.seq <= seq })
}

func (q *Queue) decodeAt(off uint64) (Record, uint64, error) {
	h, err := q.headerAt(off)
	if err != nil {
		return Record{}, 0, err
	}
	body := make([]byte, h.nameLen+h.argsLen)
	if err := q.read(off+recHdr, body); err != nil {
		return Record{}, 0, err
	}
	return Record{Seq: h.seq, Name: string(body[:h.nameLen]), Args: body[h.nameLen:]}, h.size, nil
}

// MarkDone durably moves the done cursor past every pending record with
// Seq <= seq: they were executed and handed on, and are now in flight. One
// 8-byte store and one header persist; nothing when the cursor is already
// there (an acknowledgment overtook it).
func (q *Queue) MarkDone(seq uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	done, err := q.skip(q.done, seq)
	if err != nil {
		return err
	}
	if err := q.store(hOffDone, &q.done, done); err != nil {
		return err
	}
	return q.flush()
}

// DropThrough durably removes all records with Seq <= seq from the front,
// in flight or pending (the tail retires what it has acknowledged).
func (q *Queue) DropThrough(seq uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropThroughLocked(seq)
}

func (q *Queue) dropThroughLocked(seq uint64) error {
	head, err := q.skip(q.head, seq)
	if err != nil {
		return err
	}
	return q.moveHead(head)
}

// moveHead raises done to the new head if it trails, stores the head cursor
// after it (head <= done in every prefix of the stores), and persists the
// header line once.
func (q *Queue) moveHead(head uint64) error {
	if err := q.store(hOffDone, &q.done, max(q.done, head)); err != nil {
		return err
	}
	if err := q.store(hOffHead, &q.head, head); err != nil {
		return err
	}
	return q.flush()
}

// records decodes [from, to) oldest-first, at most n records of it when
// n > 0.
func (q *Queue) records(from, to uint64, n int) ([]Record, error) {
	var out []Record
	for off := from; off != to && (n <= 0 || len(out) < n); {
		r, sz, err := q.decodeAt(off)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		off += sz
	}
	return out, nil
}

// Inflight returns the records executed and handed on but not yet
// acknowledged, oldest-first (recovery and resend).
func (q *Queue) Inflight() ([]Record, error) {
	return q.Oldest(0)
}

// Oldest returns the first n records of the in-flight range, all of them
// when n <= 0 (the repair ticker re-drives a stalled floor's few).
func (q *Queue) Oldest(n int) ([]Record, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.records(q.head, q.done, n)
}

// Find returns the record numbered seq, in flight or pending, decoding
// that record alone; ok is false when the ring does not hold it.
func (q *Queue) Find(seq uint64) (rec Record, ok bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	off, err := q.scan(q.head, func(_ uint64, h recHeader) bool { return h.seq < seq })
	if err != nil || off == q.tail {
		return Record{}, false, err
	}
	if rec, _, err = q.decodeAt(off); err != nil || rec.Seq != seq {
		return Record{}, false, err
	}
	return rec, true, nil
}

// Pending returns the records not yet executed and handed on, oldest-first.
func (q *Queue) Pending() ([]Record, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.records(q.done, q.tail, 0)
}

// Cursor iterates the pending records oldest-first without consuming them,
// so a pipelined consumer can execute records while a later stage decides
// when they durably count as done (MarkDone) or leave the ring
// (DropThrough). If the done cursor overtakes this one (records retired
// behind it), it clamps forward. Logical offsets grow monotonically, so a
// cursor never sees a record twice.
type Cursor struct {
	q   *Queue
	off uint64
}

// Cursor returns a cursor positioned at the oldest pending record.
func (q *Queue) Cursor() *Cursor {
	q.mu.Lock()
	defer q.mu.Unlock()
	return &Cursor{q: q, off: q.done}
}

// Next returns the record under the cursor and advances past it, or
// ErrEmpty when the cursor has caught up with the tail.
func (c *Cursor) Next() (Record, error) {
	c.q.mu.Lock()
	defer c.q.mu.Unlock()
	c.off = max(c.off, c.q.done)
	if c.off == c.q.tail {
		return Record{}, ErrEmpty
	}
	r, sz, err := c.q.decodeAt(c.off)
	if err != nil {
		return Record{}, err
	}
	c.off += sz
	return r, nil
}
