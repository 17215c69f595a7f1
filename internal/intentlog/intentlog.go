// Package intentlog implements Kamino-Tx's Log Manager (paper §3, §6.2 and
// Figure 11): a persistent, space-efficient record of transaction write
// intents and outcomes.
//
// The log region is divided into fixed-size slots, one per in-flight
// transaction. A slot holds a one-cache-line header (state, transaction id,
// entry count, data usage — single-line updates are failure-atomic), a fixed
// array of 32-byte intent entries, and an optional data area used by the
// undo-logging and copy-on-write baselines to store object copies. Kamino-Tx
// itself appends only the 32-byte entries — object addresses, never data —
// which is what removes copying from the critical path.
//
// Durability protocol per Append: the entry bytes and the updated count are
// flushed and a single fence issued before Append returns. Entries carry the
// slot's transaction id; recovery ignores entries whose id does not match
// the slot header, which makes a torn final append harmless (the engine only
// modifies an object after its intent's fence, so an unfenced intent implies
// an unmodified object). AppendWithData fences its data before the append
// that names it, so an entry that survives always has its data.
//
// A transaction's first append also opens its slot: the header line (Running,
// the transaction id, the counters) and the entry line are flushed together
// and that one fence covers both — there is no separate "begin" persist.
// However a crash tears the two lines apart, recovery sees nothing: with
// neither durable the previous owner's freed header stands; the entry alone
// sits under a header that is still Free; the header alone names an entry
// line still tagged by an older transaction, a Running slot with nothing in
// it. Attach resumes the id counter above every entry tag as well as every
// header, so an id that reached the device only as a tag is never reissued.
package intentlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kaminotx/internal/nvm"
)

// Op is the kind of a logged intent.
type Op uint8

// Intent operations.
const (
	OpWrite Op = 1 // object will be modified in place
	OpAlloc Op = 2 // object was allocated by this transaction
	OpFree  Op = 3 // object will be freed at commit
)

// String names the record kind for logs and errors.
func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpAlloc:
		return "alloc"
	case OpFree:
		return "free"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// State is a transaction slot's lifecycle state. The values are persisted.
type State uint32

// Slot states.
const (
	StateFree      State = 0
	StateRunning   State = 1
	StateCommitted State = 2
	StateAborted   State = 3
)

// String names the slot state for logs and errors.
func (s State) String() string {
	switch s {
	case StateFree:
		return "free"
	case StateRunning:
		return "running"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("State(%d)", uint32(s))
	}
}

// Entry is one intent record. Obj addresses a heap object (payload offset);
// Class is its payload capacity so recovery knows how many bytes to copy
// without trusting possibly-torn heap headers. DataOff/DataLen locate an
// old-data or shadow copy in the slot's data area (baselines only).
type Entry struct {
	Op      Op
	Class   uint32
	Obj     uint64
	DataOff uint32
	DataLen uint32
}

const (
	hdrSize   = 64
	logMagic  = 0x4b4c4f47 // "KLOG"
	entrySize = 32

	// header fields
	hOffMagic   = 0
	hOffVersion = 4
	hOffSlots   = 8
	hOffEntries = 12
	hOffData    = 16
	hOffCheck   = 20

	// slot header fields (one cache line)
	sOffState   = 0  // u32
	sOffNEnt    = 4  // u32
	sOffTxID    = 8  // u64
	sOffDataUse = 16 // u32
	slotHdrSize = 64

	// entry fields (within a 32-byte record)
	eOffOp      = 0
	eOffClass   = 4
	eOffObj     = 8
	eOffDataOff = 16
	eOffDataLen = 20
	eOffTxID    = 24 // validity tag
)

// Config sizes a log at Format time.
type Config struct {
	// Slots is the number of concurrently outstanding transactions the
	// log can hold (including committed transactions whose backup sync
	// is still pending).
	Slots int
	// EntriesPerSlot bounds the write-set size of one transaction.
	EntriesPerSlot int
	// DataBytesPerSlot sizes the per-slot data area for undo/CoW object
	// copies. Kamino-Tx engines can set this to zero.
	DataBytesPerSlot int
}

// DefaultConfig is suitable for the test and benchmark workloads.
var DefaultConfig = Config{Slots: 128, EntriesPerSlot: 64, DataBytesPerSlot: 64 << 10}

func (c Config) slotSize() int {
	return slotHdrSize + c.EntriesPerSlot*entrySize + c.DataBytesPerSlot
}

// RegionSize returns the NVM region size needed for this configuration.
func (c Config) RegionSize() int {
	return hdrSize + c.Slots*c.slotSize()
}

func (c Config) validate() error {
	if c.Slots <= 0 || c.EntriesPerSlot <= 0 || c.DataBytesPerSlot < 0 {
		return fmt.Errorf("intentlog: invalid config %+v", c)
	}
	return nil
}

func (c Config) checksum() uint32 {
	// Cheap integrity check over the geometry fields.
	return uint32(c.Slots)*2654435761 ^ uint32(c.EntriesPerSlot)*40503 ^ uint32(c.DataBytesPerSlot)*9176
}

// Log is a persistent intent log bound to one NVM region.
//
// The volatile free-slot pool is one LIFO stack under mu. A Begin that finds
// it empty waits on freed, which every slot return signals — backpressure on
// the asynchronous applier.
type Log struct {
	reg *nvm.Region
	cfg Config

	nextTxID atomic.Uint64

	// txs holds one TxLog per slot, handed out by Begin and reused by the
	// slot's next owner: whoever holds the slot holds its TxLog, from the
	// claim to the Release (or SlotView.Free) that returns the slot.
	txs []TxLog

	mu    sync.Mutex
	free  []int      // free slot indexes; the last is claimed next
	freed *sync.Cond // on mu; signaled on every slot return
}

// bindLog builds the volatile side of a log with no free slots.
func bindLog(reg *nvm.Region, cfg Config) *Log {
	l := &Log{reg: reg, cfg: cfg, txs: make([]TxLog, cfg.Slots)}
	l.freed = sync.NewCond(&l.mu)
	return l
}

// popLocked claims the most recently freed slot. Callers hold mu.
func (l *Log) popLocked() (int, bool) {
	if len(l.free) == 0 {
		return 0, false
	}
	slot := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	return slot, true
}

// returnSlot makes a slot allocatable again and wakes one blocked Begin.
func (l *Log) returnSlot(slot int) {
	l.mu.Lock()
	l.free = append(l.free, slot)
	l.freed.Signal()
	l.mu.Unlock()
}

// Errors returned by the log.
var (
	ErrLogFull     = errors.New("intentlog: no free transaction slots")
	ErrEntriesFull = errors.New("intentlog: transaction write-set exceeds slot capacity")
	ErrDataFull    = errors.New("intentlog: slot data area exhausted")
	ErrBadMagic    = errors.New("intentlog: region is not a formatted log")
	ErrBadConfig   = errors.New("intentlog: header checksum mismatch")
)

// Format initializes a fresh log in reg.
func Format(reg *nvm.Region, cfg Config) (*Log, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if reg.Size() < cfg.RegionSize() {
		return nil, fmt.Errorf("intentlog: region %d bytes, config needs %d", reg.Size(), cfg.RegionSize())
	}
	if err := reg.Zero(0, cfg.RegionSize()); err != nil {
		return nil, err
	}
	if err := reg.Store32(hOffMagic, logMagic); err != nil {
		return nil, err
	}
	if err := reg.Store32(hOffVersion, 1); err != nil {
		return nil, err
	}
	if err := reg.Store32(hOffSlots, uint32(cfg.Slots)); err != nil {
		return nil, err
	}
	if err := reg.Store32(hOffEntries, uint32(cfg.EntriesPerSlot)); err != nil {
		return nil, err
	}
	if err := reg.Store32(hOffData, uint32(cfg.DataBytesPerSlot)); err != nil {
		return nil, err
	}
	if err := reg.Store32(hOffCheck, cfg.checksum()); err != nil {
		return nil, err
	}
	if err := reg.Persist(0, cfg.RegionSize()); err != nil {
		return nil, err
	}
	l := bindLog(reg, cfg)
	l.nextTxID.Store(1)
	for i := cfg.Slots - 1; i >= 0; i-- {
		l.free = append(l.free, i)
	}
	return l, nil
}

// Attach binds to a formatted log. Slots that are not free are preserved for
// Recover; only free slots become allocatable.
func Attach(reg *nvm.Region) (*Log, error) {
	magic, err := reg.Load32(hOffMagic)
	if err != nil {
		return nil, err
	}
	if magic != logMagic {
		return nil, ErrBadMagic
	}
	slots, _ := reg.Load32(hOffSlots)
	entries, _ := reg.Load32(hOffEntries)
	data, _ := reg.Load32(hOffData)
	check, _ := reg.Load32(hOffCheck)
	cfg := Config{Slots: int(slots), EntriesPerSlot: int(entries), DataBytesPerSlot: int(data)}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.checksum() != check {
		return nil, ErrBadConfig
	}
	// Divided, not multiplied: a corrupt geometry must not overflow into
	// a size the region seems to have.
	if room := reg.Size() - hdrSize; cfg.EntriesPerSlot > room || cfg.DataBytesPerSlot > room || cfg.Slots > room/cfg.slotSize() {
		return nil, fmt.Errorf("intentlog: region smaller than formatted size")
	}
	l := bindLog(reg, cfg)
	maxTx := uint64(0)
	for i := cfg.Slots - 1; i >= 0; i-- {
		st, txid, _, _, err := l.slotHeader(i)
		if err != nil {
			return nil, err
		}
		if txid > maxTx {
			maxTx = txid
		}
		// A first append persists header and entry 0 under one fence, so
		// a crash can leave entry 0 tagged with an id no header recorded;
		// reissued, that id would validate the stale entry. Resume above it.
		tag, err := reg.Load64(l.entryOff(i, 0) + eOffTxID)
		if err != nil {
			return nil, err
		}
		if tag > maxTx {
			maxTx = tag
		}
		if st == StateFree {
			l.free = append(l.free, i)
		}
	}
	l.nextTxID.Store(maxTx + 1)
	return l, nil
}

// Config returns the log's geometry.
func (l *Log) Config() Config { return l.cfg }

// Region returns the underlying region (test hook).
func (l *Log) Region() *nvm.Region { return l.reg }

func (l *Log) slotOff(slot int) int { return hdrSize + slot*l.cfg.slotSize() }
func (l *Log) entryOff(slot, i int) int {
	return l.slotOff(slot) + slotHdrSize + i*entrySize
}
func (l *Log) dataOff(slot int) int {
	return l.slotOff(slot) + slotHdrSize + l.cfg.EntriesPerSlot*entrySize
}

func (l *Log) slotHeader(slot int) (State, uint64, int, int, error) {
	off := l.slotOff(slot)
	st, err := l.reg.Load32(off + sOffState)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	txid, err := l.reg.Load64(off + sOffTxID)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	n, err := l.reg.Load32(off + sOffNEnt)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	used, err := l.reg.Load32(off + sOffDataUse)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return State(st), txid, int(n), int(used), nil
}

// TxLog is the per-transaction view of one slot. It is the slot's, not the
// transaction's: a TxLog must not be used after its Release, when the slot's
// next owner may already be writing it.
type TxLog struct {
	l        *Log
	slot     int
	txid     uint64
	n        int
	dataUsed int
	inited   bool // slot header written by this transaction (first append)
	released bool
}

// Begin claims a free slot; the first append durably marks it Running (see
// newTx). When all slots are occupied (committed transactions whose backup
// sync is still pending hold theirs), Begin blocks until one frees —
// backpressure on the asynchronous applier rather than an error.
func (l *Log) Begin() (*TxLog, error) {
	l.mu.Lock()
	for {
		if slot, ok := l.popLocked(); ok {
			l.mu.Unlock()
			return l.newTx(slot), nil
		}
		l.freed.Wait()
	}
}

// TryBegin is Begin without blocking; it returns ErrLogFull when no slot is
// free.
func (l *Log) TryBegin() (*TxLog, error) {
	l.mu.Lock()
	slot, ok := l.popLocked()
	l.mu.Unlock()
	if !ok {
		return nil, ErrLogFull
	}
	return l.newTx(slot), nil
}

// newTx binds a claimed slot to a fresh transaction id. The slot's
// durable header is NOT touched here: the transaction's first append opens
// the slot (storeCount), so a transaction that never logs anything — the
// read-only case, the bulk of most workloads — claims and returns its slot
// without a single device operation. The durable image of such a slot
// stays whatever the last logging transaction left (a freed or empty
// header), which recovery already resolves to a no-op.
func (l *Log) newTx(slot int) *TxLog {
	t := &l.txs[slot]
	*t = TxLog{l: l, slot: slot, txid: l.nextTxID.Add(1)}
	return t
}

// storeCount stores one of the slot header's counters and flushes the
// header line; every caller fences before it returns. The transaction's
// first call opens the slot instead: it stores the whole one-line header —
// Running, the transaction id, both counters as they stand — which persists
// as a unit, under the same fence as the payload flushed alongside (the
// package comment shows every torn outcome is harmless).
func (t *TxLog) storeCount(field int, v uint32) error {
	off := t.l.slotOff(t.slot)
	if t.inited {
		if err := t.l.reg.Store32(off+field, v); err != nil {
			return err
		}
		return t.l.reg.Flush(off+field, 4)
	}
	var hdr [sOffDataUse + 4]byte
	binary.LittleEndian.PutUint32(hdr[sOffState:], uint32(StateRunning))
	binary.LittleEndian.PutUint32(hdr[sOffNEnt:], uint32(t.n))
	binary.LittleEndian.PutUint64(hdr[sOffTxID:], t.txid)
	binary.LittleEndian.PutUint32(hdr[sOffDataUse:], uint32(t.dataUsed))
	if err := t.l.reg.Write(off, hdr[:]); err != nil {
		return err
	}
	t.inited = true
	return t.l.reg.Flush(off, slotHdrSize)
}

// TxID returns the transaction's id.
func (t *TxLog) TxID() uint64 { return t.txid }

// Slot returns the slot index (test hook).
func (t *TxLog) Slot() int { return t.slot }

// Len returns the number of appended entries.
func (t *TxLog) Len() int { return t.n }

// EntryRange returns the byte range [off, off+n) entry i of this
// transaction occupies in the log region — the range that must be
// durable before the corresponding in-place store (trace/auditor use).
func (t *TxLog) EntryRange(i int) (off, n int) {
	return t.l.entryOff(t.slot, i), entrySize
}

// Append durably records one intent. On return the intent (and every earlier
// one) is durable; the caller may then modify the object.
func (t *TxLog) Append(e Entry) error {
	if t.n >= t.l.cfg.EntriesPerSlot {
		return ErrEntriesFull
	}
	off := t.l.entryOff(t.slot, t.n)
	var buf [entrySize]byte
	buf[eOffOp] = byte(e.Op)
	binary.LittleEndian.PutUint32(buf[eOffClass:], e.Class)
	binary.LittleEndian.PutUint64(buf[eOffObj:], e.Obj)
	binary.LittleEndian.PutUint32(buf[eOffDataOff:], e.DataOff)
	binary.LittleEndian.PutUint32(buf[eOffDataLen:], e.DataLen)
	binary.LittleEndian.PutUint64(buf[eOffTxID:], t.txid)
	if err := t.l.reg.Write(off, buf[:]); err != nil {
		return err
	}
	if err := t.l.reg.Flush(off, entrySize); err != nil {
		return err
	}
	t.n++
	if err := t.storeCount(sOffNEnt, uint32(t.n)); err != nil {
		return err
	}
	// One fence covers both the entry and the count (paper §6.2: "one
	// flush instruction after all the write intents are declared"), and on
	// the first append the header that opens the slot. If a crash tears
	// them apart, the txid tag invalidates the entry.
	t.l.reg.Fence()
	return nil
}

// AppendWithData records an intent together with a copy of data placed in
// the slot's data area (undo-log old value or CoW shadow). The data is
// persisted — flushed and fenced — before the entry that points at it is
// stored: under one fence a crash could keep the header and the entry and
// lose data lines, and a rollback would then copy those lines' stale bytes
// over the object. Returns the entry actually written (with DataOff/DataLen
// filled in).
func (t *TxLog) AppendWithData(e Entry, data []byte) (Entry, error) {
	if t.dataUsed+len(data) > t.l.cfg.DataBytesPerSlot {
		return Entry{}, ErrDataFull
	}
	doff := t.l.dataOff(t.slot) + t.dataUsed
	if err := t.l.reg.Write(doff, data); err != nil {
		return Entry{}, err
	}
	if err := t.l.reg.Persist(doff, len(data)); err != nil {
		return Entry{}, err
	}
	e.DataOff = uint32(t.dataUsed)
	e.DataLen = uint32(len(data))
	t.dataUsed += len(data)
	if err := t.storeCount(sOffDataUse, uint32(t.dataUsed)); err != nil {
		return Entry{}, err
	}
	if err := t.Append(e); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// ReserveData claims n bytes of the slot's data area without writing them,
// returning the region offset of the reservation. Used by the CoW engine,
// whose shadow copies are edited in place and persisted at commit.
func (t *TxLog) ReserveData(n int) (regionOff int, dataOff uint32, err error) {
	if t.dataUsed+n > t.l.cfg.DataBytesPerSlot {
		return 0, 0, ErrDataFull
	}
	doff := t.l.dataOff(t.slot) + t.dataUsed
	o := uint32(t.dataUsed)
	t.dataUsed += n
	if err := t.storeCount(sOffDataUse, uint32(t.dataUsed)); err != nil {
		return 0, 0, err
	}
	t.l.reg.Fence()
	return doff, o, nil
}

// DataRegionOff translates a slot-relative data offset to a region offset.
func (t *TxLog) DataRegionOff(dataOff uint32) int {
	return t.l.dataOff(t.slot) + int(dataOff)
}

// Data returns a read-only view of n bytes at the given slot-relative data
// offset.
func (t *TxLog) Data(dataOff uint32, n int) ([]byte, error) {
	return t.l.reg.ReadSlice(t.l.dataOff(t.slot)+int(dataOff), n)
}

// SetState durably transitions the slot to s (Committed or Aborted). The
// one-line slot header makes this the transaction's atomic commit point.
//
// For an empty transaction (no entries, no data — the read-only case)
// the state word is stored but not flushed: recovery treats a slot with
// zero entries identically whether the crash image reads Running or s —
// there is nothing to roll either way — so durability of the transition
// buys nothing, and read-heavy workloads would pay a flush+fence per
// transaction for it. The volatile store keeps PendingSlots and other
// live introspection consistent.
func (t *TxLog) SetState(s State) error {
	if !t.inited {
		// Nothing was ever logged and the header was never written:
		// the slot's durable and volatile images both predate this
		// transaction, and recovery would treat them identically with
		// or without this transition. Writing the state word here would
		// actually corrupt the view (it may tag another, freed header).
		return nil
	}
	off := t.l.slotOff(t.slot)
	if err := t.l.reg.Store32(off+sOffState, uint32(s)); err != nil {
		return err
	}
	if t.n == 0 && t.dataUsed == 0 {
		return nil
	}
	return t.l.reg.Persist(off+sOffState, 4)
}

// Release durably frees the slot and returns it to the allocatable pool.
// Called once the transaction's effects are fully reconciled (backup synced
// for Kamino, undo data discarded for baselines).
//
// An empty transaction's release is volatile-only (as in SetState): the
// crash image may then still read Running or Committed with zero
// entries, which recovery resolves to a freed slot with no effects —
// exactly what a durable Free would have produced. The next writer of
// the slot rewrites the whole header line (storeCount) under the same fence
// as its first entry, and that entry is valid only under the new header.
func (t *TxLog) Release() error {
	if t.released {
		return nil
	}
	if !t.inited {
		t.released = true
		t.l.returnSlot(t.slot)
		return nil
	}
	off := t.l.slotOff(t.slot)
	if err := t.l.reg.Store32(off+sOffState, uint32(StateFree)); err != nil {
		return err
	}
	if t.n > 0 || t.dataUsed > 0 {
		if err := t.l.reg.Persist(off+sOffState, 4); err != nil {
			return err
		}
	}
	t.released = true
	t.l.returnSlot(t.slot)
	return nil
}

// Entries returns the valid entries of the transaction (test hook; recovery
// uses SlotView).
func (t *TxLog) Entries() ([]Entry, error) {
	return t.l.readEntries(t.slot, t.txid, t.n)
}

func (l *Log) readEntries(slot int, txid uint64, n int) ([]Entry, error) {
	if n > l.cfg.EntriesPerSlot {
		return nil, fmt.Errorf("intentlog: slot %d counts %d entries, holds %d", slot, n, l.cfg.EntriesPerSlot)
	}
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		off := l.entryOff(slot, i)
		buf, err := l.reg.ReadSlice(off, entrySize)
		if err != nil {
			return nil, err
		}
		tag := binary.LittleEndian.Uint64(buf[eOffTxID:])
		if tag != txid {
			// Torn final append: the intent never became durable,
			// so the object was never touched. Ignore it and
			// everything after it.
			break
		}
		out = append(out, Entry{
			Op:      Op(buf[eOffOp]),
			Class:   binary.LittleEndian.Uint32(buf[eOffClass:]),
			Obj:     binary.LittleEndian.Uint64(buf[eOffObj:]),
			DataOff: binary.LittleEndian.Uint32(buf[eOffDataOff:]),
			DataLen: binary.LittleEndian.Uint32(buf[eOffDataLen:]),
		})
	}
	return out, nil
}

// SlotView is a recovery-time view of a non-free slot.
type SlotView struct {
	Slot    int
	State   State
	TxID    uint64
	Entries []Entry

	l *Log
}

// Data returns a read-only view into the slot's data area.
func (v SlotView) Data(dataOff uint32, n int) ([]byte, error) {
	return v.l.reg.ReadSlice(v.l.dataOff(v.Slot)+int(dataOff), n)
}

// Free durably frees the slot after recovery has processed it.
func (v SlotView) Free() error {
	off := v.l.slotOff(v.Slot)
	if err := v.l.reg.Store32(off+sOffState, uint32(StateFree)); err != nil {
		return err
	}
	if err := v.l.reg.Persist(off+sOffState, 4); err != nil {
		return err
	}
	v.l.returnSlot(v.Slot)
	return nil
}

// Recover invokes fn for every non-free slot. fn is responsible for rolling
// the transaction back or forward and then calling Free on the view.
// Ordering across slots is immaterial: the engine's locking guarantees that
// unreconciled transactions never overlap on an object.
func (l *Log) Recover(fn func(SlotView) error) error {
	for i := 0; i < l.cfg.Slots; i++ {
		st, txid, n, _, err := l.slotHeader(i)
		if err != nil {
			return err
		}
		if st == StateFree {
			continue
		}
		entries, err := l.readEntries(i, txid, n)
		if err != nil {
			return err
		}
		if err := fn(SlotView{Slot: i, State: st, TxID: txid, Entries: entries, l: l}); err != nil {
			return err
		}
	}
	return nil
}

// PendingSlots counts non-free slots (test hook).
func (l *Log) PendingSlots() (int, error) {
	n := 0
	for i := 0; i < l.cfg.Slots; i++ {
		st, _, _, _, err := l.slotHeader(i)
		if err != nil {
			return 0, err
		}
		if st != StateFree {
			n++
		}
	}
	return n, nil
}
