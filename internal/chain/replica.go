// Package chain implements chain replication of a key-value store over the
// kamino persistent heap: the traditional variant (every replica copies
// data in the critical path, as its undo-logging engine requires) and
// Kamino-Tx-Chain (paper §5), where f+2 replicas update in place, only the
// head keeps a backup, and the chain's neighbours serve as the copies that
// roll an incompletely rebooted replica forward or back.
package chain

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"kaminotx/internal/halving"
	"kaminotx/internal/membership"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
	"kaminotx/internal/phash"
	"kaminotx/internal/pqueue"
	"kaminotx/internal/trace"
	"kaminotx/internal/transport"
	"kaminotx/kamino"
)

// Mode selects the replication scheme.
type Mode int

// Replication modes.
const (
	// ModeKamino is Kamino-Tx-Chain: head runs Kamino-Tx (backup),
	// other replicas update in place with no local copies.
	ModeKamino Mode = iota
	// ModeTraditional is classic chain replication where every replica
	// uses undo logging (copies in the critical path at each node).
	ModeTraditional
)

// Sizes and intervals every replica shares. No caller ever set another
// value, so they are constants rather than Config fields.
const (
	queueBytes        = 4 << 20               // each of the ring's two ranges, pending and in flight
	logEntriesPerSlot = 512                   // so a full hop batch usually commits as one transaction (execute)
	batchBytes        = 256 << 10             // argument bytes that close a batch (full)
	resendInterval    = 25 * time.Millisecond // the repair ticker's period (reacker)
	snapTimeout       = 10 * time.Second      // a donor frozen this long for a vanished joiner resumes
	stateChunkBytes   = 256 << 10             // one state-transfer chunk (JoinAsTail)
)

// Config builds a replica.
type Config struct {
	Mode Mode
	// HeapSize is each replica's heap region size.
	HeapSize int
	// Alpha sizes the head's backup: >= 1 full mirror (Kamino-Tx-Simple
	// head), < 1 dynamic (Kamino-Tx-Dynamic head, the paper's
	// Kamino-Tx-Amortized chain when combined with in-place replicas).
	Alpha float64
	// FlushLatency / FenceLatency model the persist costs of the simulated
	// NVM backing each replica's pool AND its protocol queues (the same
	// knobs kamino.Options exposes for standalone pools). Zero means free
	// persists, which hides exactly the cost hop batching amortizes.
	FlushLatency time.Duration
	FenceLatency time.Duration
	// Strict enables crash simulation (required by Reboot).
	Strict bool

	// BatchOps caps how many records one chain hop carries in a single
	// KindOpBatch message and a single persistent-queue append (one
	// flush+fence epoch per batch instead of per op). A batch is whatever
	// has already queued, up to BatchOps records or batchBytes of
	// arguments; nothing waits for it to fill. Default 1: batches of one.
	BatchOps int

	Transport transport.Transport
	Manager   *membership.Manager

	// Trace, when non-nil, records the replica's chain protocol events
	// (forward, apply, ack — actor "chain/<id>") and its local pool's
	// device and transaction events. A chain event names its record by
	// the sequence number the head assigned, so one write's events
	// correlate across all replicas.
	Trace *trace.Recorder
}

func (c Config) withDefaults() Config {
	if c.HeapSize == 0 {
		c.HeapSize = 64 << 20
	}
	if c.Alpha == 0 {
		c.Alpha = 1
	}
	if c.BatchOps <= 0 {
		c.BatchOps = 1
	}
	return c
}

// Replica is one chain member.
type Replica struct {
	id  transport.NodeID
	cfg Config

	pool *kamino.Pool
	// kv is the store the replicated writes update, set before the replica
	// goes on the air and never written after, so no lock guards it.
	kv      *phash.Map
	ring    *pqueue.Queue // pending and in-flight records (see pqueue)
	ringReg *nvm.Region
	// power orders whatever touches this replica's regions from outside
	// its pipeline — message handlers, DebugInfo, the record-count gauges —
	// against a reboot's power failure. They hold it shared; reboot, having
	// stopped the pipeline and left the transport, holds it exclusively
	// from the first region's crash until the pool has reopened and the
	// re-attached ring is published. A handler still running when the node
	// left the transport thus finishes before the power fails, one that
	// starts later meets the recovered state, and a sampler sees the
	// pre-crash ring or the recovered one — never a region mid-Crash.
	power sync.RWMutex

	obs        *obs.Registry
	cSubmits   *obs.Counter // ops accepted at the head
	cApplied   *obs.Counter // ops executed from the ring's pending range
	cForwarded *obs.Counter // ops sent to the successor
	cTailAcks  *obs.Counter // tail acknowledgments sent
	cAcksRecv  *obs.Counter // tail acknowledgments received (head)
	cCleanups  *obs.Counter // cleanup messages handled
	cDedup     *obs.Counter // duplicate deliveries dropped
	cGaps      *obs.Counter // deliveries dropped for arriving ahead of an older record
	cFetches   *obs.Counter // recovery fetches served to neighbours
	cResends   *obs.Counter // in-flight re-forwards after view changes
	cBatches   *obs.Counter // downstream op messages, resends included
	cBatchOps  *obs.Counter // ops inside those sends; /batches = mean batch size
	cSplits    *obs.Counter // combined batch transactions that failed and split

	tr *trace.Tracer // chain protocol events; nil when untraced

	mu       sync.Mutex
	view     membership.View
	lastExec uint64
	promoted bool // head engine active (initial head or promoted later)

	submitCh    chan *submitReq // head: admitted submissions awaiting a batch
	refs        []pqueue.Record // the batcher's: its batch's ring records, reused
	stopMu      sync.Mutex
	stop        chan struct{} // closed while the pipeline is stopped
	wg          sync.WaitGroup
	watchCancel func() // removes this replica's membership watcher
	// drainMu is held for each drain step, so the inbox goroutine's steps
	// and those of the start and recovery paths take turns, and
	// stopExecutor can wait out the one in progress. cur is the pipeline
	// incarnation's cursor over the ring's pending range, used under it.
	drainMu sync.Mutex
	cur     *pqueue.Cursor

	// Donor-side state-transfer snapshot (see rejoin.go): while a
	// snapshot is frozen the pipeline is stopped and chunk fetches are
	// validated against the nonce; the watchdog resumes the donor if the
	// joiner vanishes mid-transfer.
	snapMu    sync.Mutex
	snapNonce uint64
	snapCtr   uint64
	snapTimer *time.Timer

	// Head state.
	headMu   sync.Mutex
	nextSeq  uint64
	lockCond *sync.Cond
	lockedBy map[uint64]struct{}   // held admission-lock keys
	inflight map[uint64]inflightOp // seq -> its write, executed and not yet acknowledged
	held     uint64                // the in-flight writes' sizes, summed
	execErr  error                 // fatal replica error
}

// inflightOp is what the head keeps of one write in flight down the chain.
type inflightOp struct {
	lock uint64     // its admission-lock key
	done chan error // its client; nil for a write a promoted head re-drives
	size uint64     // the ring bytes its whole record takes downstream
}

// submitReq is one admitted client write waiting for the head batcher: the
// record it becomes, its sequence number still unset.
type submitReq struct {
	rec  pqueue.Record
	lock uint64
	done chan error
}

// NewReplica builds one replica and registers its transport handler. The
// initial view decides its role; the head gets a backup per cfg.Alpha.
func NewReplica(id transport.NodeID, cfg Config) (*Replica, error) {
	cfg = cfg.withDefaults()
	if cfg.Transport == nil || cfg.Manager == nil {
		return nil, errors.New("chain: Transport and Manager are required")
	}
	view := cfg.Manager.View()
	if view.Index(id) < 0 {
		return nil, fmt.Errorf("chain: %s is not in the initial view", id)
	}
	r, err := newReplicaCore(id, cfg, view.Head() == id, true)
	if err != nil {
		return nil, err
	}
	r.view = view
	r.promoted = view.Head() == id
	if err := r.goLive(); err != nil {
		return nil, err
	}
	return r, nil
}

// newReplicaCore builds a replica's pool, persistent ring, and
// observability but leaves it offline: no transport handler, no membership
// watcher, no pipeline. NewReplica brings members online immediately;
// JoinAsTail (rejoin.go) keeps a replacement replica offline until state
// transfer has filled its heap. A member creates its store here; a joiner
// (member false) attaches to the one in the copied image once it is in
// place.
func newReplicaCore(id transport.NodeID, cfg Config, isHead, member bool) (*Replica, error) {
	var mode kamino.Mode
	switch cfg.Mode {
	case ModeKamino:
		if isHead {
			if cfg.Alpha >= 1 {
				mode = kamino.ModeSimple
			} else {
				mode = kamino.ModeDynamic
			}
		} else {
			mode = kamino.ModeInPlace
		}
	case ModeTraditional:
		mode = kamino.ModeUndo
	default:
		return nil, fmt.Errorf("chain: unknown mode %d", cfg.Mode)
	}
	pool, err := kamino.Create(kamino.Options{
		Mode:              mode,
		HeapSize:          cfg.HeapSize,
		Alpha:             cfg.Alpha,
		LogEntriesPerSlot: logEntriesPerSlot,
		FlushLatency:      cfg.FlushLatency,
		FenceLatency:      cfg.FenceLatency,
		Strict:            cfg.Strict,
		Trace:             cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	ropts := nvm.Options{
		Mode: nvm.ModeFast,
		Latency: nvm.LatencyModel{
			FlushPerLine: cfg.FlushLatency,
			Fence:        cfg.FenceLatency,
		},
	}
	if cfg.Strict {
		ropts.Mode = nvm.ModeStrict
	}
	ringReg, err := nvm.New(2*queueBytes, ropts)
	if err != nil {
		return nil, err
	}
	ring, err := pqueue.Format(ringReg)
	if err != nil {
		return nil, err
	}
	var kv *phash.Map
	if member {
		if kv, err = kvSetup(pool); err != nil {
			return nil, err
		}
	}

	o := obs.New("chain/" + string(id))
	r := &Replica{
		id:         id,
		cfg:        cfg,
		pool:       pool,
		kv:         kv,
		ring:       ring,
		ringReg:    ringReg,
		obs:        o,
		cSubmits:   o.Counter("submits"),
		cApplied:   o.Counter("applied"),
		cForwarded: o.Counter("forwarded"),
		cTailAcks:  o.Counter("tail_acks"),
		cAcksRecv:  o.Counter("acks_received"),
		cCleanups:  o.Counter("cleanups"),
		cDedup:     o.Counter("dedup_dropped"),
		cGaps:      o.Counter("gap_dropped"),
		cFetches:   o.Counter("fetches_served"),
		cResends:   o.Counter("resends"),
		cBatches:   o.Counter("batches"),
		cBatchOps:  o.Counter("batch_ops"),
		cSplits:    o.Counter("batch_splits"),
		submitCh:   make(chan *submitReq, 1024),
		stop:       make(chan struct{}),
		lockedBy:   make(map[uint64]struct{}),
		inflight:   make(map[uint64]inflightOp),
	}
	// The ring region's device counters surface the persist cost of the
	// chain protocol itself (batching exists to shrink these).
	ringReg.ExportObs(o, "nvm.ring")
	// Each range's live occupancy: growing input means this replica is
	// the bottleneck, growing in-flight bytes the downstream chain; both
	// fall to zero once the load stops and the tail's acknowledgments
	// truncate the ring.
	o.Gauge("inputq_bytes", func() uint64 { _, in := r.getRing().Usage(); return in })
	o.Gauge("inflightq_bytes", func() uint64 { fl, _ := r.getRing().Usage(); return fl })
	if cfg.Trace != nil {
		r.tr = cfg.Trace.Tracer("chain/" + string(id))
	}
	r.lockCond = sync.NewCond(&r.headMu)
	close(r.stop) // offline until startExecutor
	return r, nil
}

// goLive puts a constructed replica on the air: transport handler,
// membership watcher, pipeline.
func (r *Replica) goLive() error {
	if err := r.cfg.Transport.Serve(r.id, r.handle, r.drainStep); err != nil {
		return err
	}
	r.watchCancel = r.cfg.Manager.Watch(r.onViewChange)
	r.startExecutor()
	return nil
}

// ID returns the replica's node id.
func (r *Replica) ID() transport.NodeID { return r.id }

// Pool exposes the replica's pool (tests and tools).
func (r *Replica) Pool() *kamino.Pool { return r.pool }

// Obs returns the replica's chain-protocol observability registry
// ("chain/<id>"): per-hop forward, ack, cleanup, dedup, fetch, and resend
// counters. The local engine's registry is separate — see Pool().Obs().
func (r *Replica) Obs() *obs.Registry { return r.obs }

// LastExec returns the highest locally executed sequence number.
func (r *Replica) LastExec() uint64 { return r.lastExecSeq() }

// LockedKeys returns how many admission-lock keys the head currently
// holds. After every in-flight transaction completes it must return to 0;
// the view-change conformance tests assert exactly that (no lock leaks).
func (r *Replica) LockedKeys() int {
	r.headMu.Lock()
	defer r.headMu.Unlock()
	return len(r.lockedBy)
}

// DebugInfo is the structured repair-relevant state of a replica:
// execution floor, sequence counter, ring spans and occupancy, and the
// admission-lock table. String() renders the one-line form a wedge dump
// prints.
type DebugInfo struct {
	// LastExec is the highest locally executed sequence number.
	LastExec uint64 `json:"last_exec"`
	// NextSeq is the head's next sequence number to mint (0 off-head).
	NextSeq uint64 `json:"next_seq"`
	// InputLast is the ring's last appended sequence number.
	InputLast uint64 `json:"input_last"`
	// Inflight counts un-acknowledged records in the ring's in-flight range;
	// InflightFloor/InflightLast bound their sequence span (0/0 when
	// empty).
	Inflight      int    `json:"inflight"`
	InflightFloor uint64 `json:"inflight_floor"`
	InflightLast  uint64 `json:"inflight_last"`
	// InputBytes and InflightBytes are the occupancy of the ring's two
	// ranges, pending input and in flight; RingCap is the capacity they
	// share. Once the load stops, acknowledged-prefix truncation must
	// empty both.
	InputBytes    uint64 `json:"input_bytes"`
	InflightBytes uint64 `json:"inflight_bytes"`
	RingCap       uint64 `json:"ring_cap"`
	// Waiters counts clients waiting for their write's tail acknowledgment.
	Waiters int `json:"waiters"`
	// LockedKeys are the admission-lock keys currently held, sorted.
	LockedKeys []uint64 `json:"locked_keys"`
	// LockSeqs are the sequence numbers of the writes in flight, each
	// holding one admission lock, sorted.
	LockSeqs []uint64 `json:"lock_seqs"`
}

// String renders the info as one line.
func (d DebugInfo) String() string {
	return fmt.Sprintf(
		"lastExec=%d nextSeq=%d input.last=%d inflight=%d[%d..%d] ring=%d+%d/%d B waiters=%d lockedKeys=%v lockSeqs=%v",
		d.LastExec, d.NextSeq, d.InputLast, d.Inflight, d.InflightFloor, d.InflightLast,
		d.InputBytes, d.InflightBytes, d.RingCap, d.Waiters, d.LockedKeys, d.LockSeqs)
}

// DebugInfo samples the replica's repair-relevant state. Safe to call from
// any goroutine at any time, a reboot included: the ring is read with the
// power held, so the ring's spans and occupancy are the pre-crash ring's or
// the recovered one's. The in-flight span comes from the record headers
// alone, so a sample decodes no record.
func (r *Replica) DebugInfo() DebugInfo {
	r.power.RLock()
	ring := r.getRing()
	span, _, _ := ring.Spans()
	fl, in := ring.Usage()
	d := DebugInfo{
		LastExec: r.lastExecSeq(), InputLast: ring.LastSeq(),
		Inflight: span.Records, InflightFloor: span.First, InflightLast: span.Last,
		InputBytes: in, InflightBytes: fl, RingCap: ring.Capacity(),
	}
	r.power.RUnlock()
	r.headMu.Lock()
	d.NextSeq = r.nextSeq
	d.LockedKeys = make([]uint64, 0, len(r.lockedBy))
	for k := range r.lockedBy {
		d.LockedKeys = append(d.LockedKeys, k)
	}
	d.LockSeqs = make([]uint64, 0, len(r.inflight))
	for seq, op := range r.inflight {
		d.LockSeqs = append(d.LockSeqs, seq)
		if op.done != nil {
			d.Waiters++
		}
	}
	r.headMu.Unlock()
	slices.Sort(d.LockedKeys)
	slices.Sort(d.LockSeqs)
	return d
}

// IsHead reports whether this replica currently heads the chain.
func (r *Replica) IsHead() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view.Head() == r.id
}

// getRing guards the ring pointer, which Reboot swaps.
func (r *Replica) getRing() *pqueue.Queue {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring
}

// ackThrough records the chain's acknowledgment of everything through seq
// in the ring and prunes it — never past what this replica has executed: a
// joiner replays its donor's pending suffix and can acknowledge a record
// the donor itself has yet to execute, and that record must stay.
func (r *Replica) ackThrough(seq uint64) error {
	return r.getRing().AckThrough(min(seq, r.lastExecSeq()))
}

// stopExecutor halts the pipeline: it returns once the batcher and the
// repair ticker have exited and any drain step in progress has finished. A
// stopped replica still appends what it receives, but drains nothing until
// startExecutor.
func (r *Replica) stopExecutor() {
	r.stopMu.Lock()
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.stopMu.Unlock()
	r.wg.Wait()
	r.drainMu.Lock() // a step in progress ends here; later ones find stop closed
	r.drainMu.Unlock()
}

// startExecutor starts one pipeline incarnation — a cursor over the current
// ring, and the head's batcher and the repair ticker with a stop channel of
// their own, so a Reboot never mixes the pre-crash incarnation into the new
// one. Whatever is pending in the ring drains before the batcher starts: a
// replica promoted mid-stream inherits records it accepted as a middle, and
// the batcher is a second writer to the same engine — admission control
// knows nothing about backlog keys, so batcher and drain transactions would
// interleave in the engine lock table (an AB-BA deadlock on shared
// hash-bucket objects even for disjoint keys) and break the allocation-order
// determinism the neighbour-copy recovery protocol needs. promoteToHead has
// resent the in-flight range by then, so the successor's ring stays in
// ascending sequence order.
func (r *Replica) startExecutor() {
	r.drainMu.Lock()
	r.cur = r.getRing().Cursor()
	r.drainMu.Unlock()
	stop := make(chan struct{})
	r.stopMu.Lock()
	r.stop = stop
	r.stopMu.Unlock()
	r.wg.Add(2) // before the drain, so a stopExecutor meanwhile waits for both
	r.drain()
	go r.batcher(stop)
	go r.reacker(stop)
}

// stopped returns the current incarnation's stop channel.
func (r *Replica) stopped() chan struct{} {
	r.stopMu.Lock()
	defer r.stopMu.Unlock()
	return r.stop
}

func (r *Replica) currentView() membership.View {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view
}

// Close stops the replica. Clients waiting on a write are failed with a
// redirect so they can retry against the chain's current head.
func (r *Replica) Close() error {
	if r.watchCancel != nil {
		r.watchCancel()
	}
	r.stopExecutor()
	r.cfg.Transport.Unregister(r.id)
	r.failWaiters(&RedirectError{ViewID: r.cfg.Manager.View().ID, Head: r.cfg.Manager.View().Head()})
	return r.pool.Close()
}

// failWaiters errors every pending head submission — both those in flight
// with a client waiting and those still queued for the batcher — releasing
// their admission locks. Used when this replica stops being able to
// complete them: removal from the view, or Close.
func (r *Replica) failWaiters(err error) {
	// Admitted submissions the batcher never picked up.
	var queued []*submitReq
	for more := true; more; {
		select {
		case req := <-r.submitCh:
			queued = append(queued, req)
		default:
			more = false
		}
	}
	r.release(err, func(_ uint64, op inflightOp) bool { return op.done != nil }, queued...)
}

// lastExecSeq returns the highest locally executed sequence number.
func (r *Replica) lastExecSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastExec
}

// executedFloor derives the executed prefix from a persistent ring: records
// leave the pending range only after execution and forwarding, so if it is
// empty everything ever enqueued (LastSeq) has executed, and otherwise
// everything before its oldest record has. Reboot restores lastExec from
// this — the volatile counter does not survive a crash.
func executedFloor(q *pqueue.Queue) (uint64, error) {
	rec, err := q.Cursor().Next()
	if errors.Is(err, pqueue.ErrEmpty) {
		return q.LastSeq(), nil
	}
	if err != nil {
		return 0, err
	}
	if rec.Seq == 0 {
		return 0, nil
	}
	return rec.Seq - 1, nil
}

func (r *Replica) fatal(err error) {
	r.headMu.Lock()
	if r.execErr == nil {
		r.execErr = err
	}
	r.headMu.Unlock()
}

// Err returns the replica's fatal error, if any.
func (r *Replica) Err() error {
	r.headMu.Lock()
	defer r.headMu.Unlock()
	return r.execErr
}

// ---------------------------------------------------------------------------
// Head API

// ErrNotHead reports a write or read on a non-head replica.
var ErrNotHead = errors.New("chain: not the head")

// RedirectError tells a client its operation reached a non-head replica
// (or a head that lost headship mid-operation) and names the view the
// client should retry against. errors.Is(err, ErrNotHead) matches it, so
// callers that only care about "wrong node" keep working.
type RedirectError struct {
	// ViewID is the view current when the redirect was issued.
	ViewID uint64
	// Head is that view's head — where to retry.
	Head transport.NodeID
}

// Error implements error.
func (e *RedirectError) Error() string {
	return fmt.Sprintf("chain: not the head (view %d, head %s)", e.ViewID, e.Head)
}

// Is reports ErrNotHead equivalence for errors.Is.
func (e *RedirectError) Is(target error) bool { return target == ErrNotHead }

// redirect builds the RedirectError for the current view.
func (r *Replica) redirect(v membership.View) error {
	return &RedirectError{ViewID: v.ID, Head: v.Head()}
}

// submit runs one write through the chain (Put, Delete): it executes at the
// head, then down the chain, and returns once the tail acknowledges it.
func (r *Replica) submit(rec pqueue.Record) error {
	if err := r.Err(); err != nil {
		return err
	}
	view := r.currentView()
	if view.Head() != r.id {
		return r.redirect(view)
	}
	// Admission control (paper §5.1): a write whose lock key an in-flight
	// write holds waits here until the tail acknowledgment releases it.
	lock := r.lockKey(rec.Args)
	r.admit(lock)

	// Hand off to the batcher, which executes, assigns the sequence
	// number, and forwards — possibly coalesced with concurrent
	// submissions into one downstream message and one ring append. The
	// batcher is single-threaded, so downstream execution order equals
	// head execution order. The stop-channel select covers a dead
	// pipeline with a full submit channel: instead of blocking on a
	// handoff nobody will drain, the client gets a redirect and retries.
	// Once handed off, the request always gets an answer: a live batcher
	// completes it, a reboot's re-drive completes it after recovery, and
	// removal or Close fails it through failWaiters.
	stop := r.stopped()
	req := &submitReq{rec: rec, lock: lock, done: make(chan error, 1)}
	select {
	case r.submitCh <- req:
	case <-stop:
		err := r.redirect(r.currentView())
		r.release(err, nil, req)
		return err
	}
	for {
		select {
		case err := <-req.done:
			return err
		case <-stop:
			// This pipeline incarnation died under us. A rebooting head
			// stays the head and its recovery re-drives the in-flight
			// set, so keep waiting on the next incarnation; a replica
			// that lost headship can never complete us — redirect.
			view := r.currentView()
			if view.Head() != r.id {
				return r.redirect(view)
			}
			stop = r.stopped()
			// The closed channel is replaced only when the pipeline
			// restarts; avoid spinning until it does.
			time.Sleep(time.Millisecond)
		}
	}
}

// batcher is the head's submission loop: it takes each batch of admitted
// submissions as gather cuts it and processes it as one unit. Non-head
// replicas run it too, but their submitCh never fills.
func (r *Replica) batcher(stop chan struct{}) {
	defer r.wg.Done()
	batch := make([]*submitReq, 0, r.cfg.BatchOps)
	for {
		var ok bool
		if batch, ok = r.gather(stop, batch[:0]); !ok {
			return
		}
		// Process even when stopping: these clients were admitted and
		// must get an answer (the stop path re-checks at the top).
		r.processBatch(batch)
	}
}

// full is the one rule that closes a batch, wherever one is formed: it
// holds maxOps records, or its arguments have reached batchBytes.
func full(n, bytes, maxOps int) bool { return n >= maxOps || bytes >= batchBytes }

// gather forms a batch of submissions in batch, which it appends to: it
// waits for a first one, then takes whatever has already queued behind it
// until the batch is full — it never waits for one to fill. It returns
// false once stop closes.
func (r *Replica) gather(stop <-chan struct{}, batch []*submitReq) ([]*submitReq, bool) {
	var first *submitReq
	select {
	case <-stop:
		return nil, false
	case first = <-r.submitCh:
	}
	batch = append(batch, first)
	for bytes := len(first.rec.Args); !full(len(batch), bytes, r.cfg.BatchOps); {
		select {
		case req := <-r.submitCh:
			batch = append(batch, req)
			bytes += len(req.rec.Args)
		default:
			return batch, true
		}
	}
	return batch, true
}

// processBatch executes a batch of admitted submissions in order, persists
// the survivors to the ring's in-flight range under one flush+fence epoch,
// and forwards them downstream as one message. Aborted operations (Figure 8)
// are answered immediately and consume no sequence number. The ring keeps
// each put as a reference (the store holds its value), built in r.refs; the
// message carries the records whole.
func (r *Replica) processBatch(reqs []*submitReq) {
	if reqs = r.fit(reqs); len(reqs) == 0 {
		return
	}
	view := r.currentView()
	recs := make([]pqueue.Record, len(reqs))
	for i, req := range reqs {
		recs[i] = req.rec
	}
	failed := r.execute(recs, true)
	// The survivors move to the front of recs, numbered; a slot is looked
	// up in failed before anything moves into it.
	n := 0
	for i, req := range reqs {
		if err, ok := failed[&recs[i]]; ok {
			// Aborted at the head: never admitted downstream.
			r.release(err, nil, req)
			continue
		}
		r.headMu.Lock()
		r.nextSeq++
		seq := r.nextSeq
		size := pqueue.Size(req.rec)
		r.inflight[seq] = inflightOp{lock: req.lock, done: req.done, size: size}
		r.held += size
		r.headMu.Unlock()
		r.mu.Lock()
		r.lastExec = seq
		r.mu.Unlock()
		r.cSubmits.Add(1)
		r.tr.ChainApply(seq)
		recs[n] = recs[i]
		recs[n].Seq = seq
		n++
	}
	recs = recs[:n]
	if n == 0 {
		return
	}
	first, last := recs[0].Seq, recs[n-1].Seq
	if len(view.Members) == 1 {
		// Degenerate single-node chain: complete immediately.
		r.completeThrough(last)
		return
	}
	r.refs = r.refs[:0]
	for _, rec := range recs {
		r.refs = append(r.refs, reference(rec))
	}
	if err := r.getRing().AppendExecuted(r.refs); err != nil {
		// The numbers go back with the records: downstream appends only the
		// record that follows its last, so a number that was never sent
		// would stall every later one.
		r.headMu.Lock()
		r.nextSeq = first - 1
		r.headMu.Unlock()
		r.release(err, func(seq uint64, _ inflightOp) bool { return seq >= first })
		return
	}
	succ, _ := view.Successor(r.id)
	for _, rec := range recs {
		r.tr.ChainForward(rec.Seq)
	}
	r.cForwarded.Add(uint64(len(recs)))
	// The clients keep waiting for the tail acknowledgment even if the
	// send fails: repair resends from the in-flight range.
	r.send(view, succ, recs)
}

// fit answers ErrFull, unexecuted, to each submission whose record would
// take the writes in flight past a ring's capacity, and returns the rest.
// Every replica downstream holds those writes whole in a ring as large as
// the head's, whose own ring keeps puts as references; so the head counts
// them at their whole size.
func (r *Replica) fit(reqs []*submitReq) []*submitReq {
	r.headMu.Lock()
	held := r.held
	r.headMu.Unlock()
	capacity := r.getRing().Capacity()
	kept := reqs[:0]
	var refused []*submitReq
	for _, req := range reqs {
		size := pqueue.Size(req.rec)
		if held+size > capacity {
			refused = append(refused, req)
			continue
		}
		held += size
		kept = append(kept, req)
	}
	if len(refused) > 0 {
		r.release(fmt.Errorf("chain: %w: %d B in flight of %d", pqueue.ErrFull, held, capacity), nil, refused...)
	}
	return kept
}

// send ships a run of records to one chain neighbour, cut into full
// batches and a last one with the rest, each one KindOpBatch message. An
// empty run sends nothing. A failed send is not reported: it means the
// neighbour just died, and repair resends from the in-flight range.
func (r *Replica) send(view membership.View, to transport.NodeID, recs []pqueue.Record) {
	for len(recs) > 0 {
		n, bytes := 0, 0
		for n < len(recs) && !full(n, bytes, r.cfg.BatchOps) {
			bytes += len(recs[n].Args)
			n++
		}
		last := recs[n-1].Seq
		_ = r.cfg.Transport.Send(to, &transport.Message{
			Kind: transport.KindOpBatch, From: r.id, ViewID: view.ID, Seq: last, Batch: recs[:n],
		})
		r.cBatches.Add(1)
		r.cBatchOps.Add(uint64(n))
		r.tr.ChainBatch(last, n)
		recs = recs[n:]
	}
}

// completeThrough finishes every in-flight transaction with seq <= ackSeq,
// client or not (a promoted head holds lock entries for re-driven
// transactions with no client): admission locks release, clients unblock,
// and the head emits one ack trace event per transaction (tail acks cover
// a whole prefix, so a single message may complete many).
func (r *Replica) completeThrough(ackSeq uint64) {
	r.release(nil, func(seq uint64, _ inflightOp) bool { return seq <= ackSeq })
}

// call sends msg to a neighbour and returns the payload of its reply, or
// the error either the call or the reply carries.
func (r *Replica) call(to transport.NodeID, msg *transport.Message) ([]byte, error) {
	reply, err := r.cfg.Transport.Call(to, msg)
	if err != nil {
		return nil, err
	}
	return reply.Payload, reply.Error()
}

// admit acquires an admission lock, blocking while an in-flight write holds
// it (a dependent transaction, in the paper's terms).
func (r *Replica) admit(lock uint64) {
	r.headMu.Lock()
	defer r.headMu.Unlock()
	for {
		if _, held := r.lockedBy[lock]; !held {
			break
		}
		r.lockCond.Wait()
	}
	r.lockedBy[lock] = struct{}{}
}

// release is the one place the head frees admission locks. Under headMu
// it deletes the in-flight writes drop selects (none when drop is nil) and
// frees their locks and those of the unnumbered writes — admitted, never
// given a sequence number — then wakes the admissions waiting on any of
// them with one broadcast. Outside headMu it answers every released client
// err, in sequence order; nil completes a write, traced as its
// acknowledgment.
func (r *Replica) release(err error, drop func(seq uint64, op inflightOp) bool, unnumbered ...*submitReq) {
	type freed struct {
		seq uint64
		inflightOp
	}
	fs := make([]freed, 0, len(unnumbered))
	for _, req := range unnumbered {
		fs = append(fs, freed{inflightOp: inflightOp{lock: req.lock, done: req.done}})
	}
	r.headMu.Lock()
	if drop != nil {
		for seq, op := range r.inflight {
			if drop(seq, op) {
				delete(r.inflight, seq)
				r.held -= op.size
				fs = append(fs, freed{seq, op})
			}
		}
	}
	for _, f := range fs {
		delete(r.lockedBy, f.lock)
	}
	r.lockCond.Broadcast()
	r.headMu.Unlock()
	slices.SortFunc(fs, func(a, b freed) int { return cmp.Compare(a.seq, b.seq) })
	for _, f := range fs {
		if f.done == nil {
			continue
		}
		if err == nil {
			r.tr.ChainAck(f.seq)
		}
		f.done <- err
	}
}

// ---------------------------------------------------------------------------
// Message handling

func (r *Replica) handle(msg *transport.Message) *transport.Message {
	r.power.RLock()
	defer r.power.RUnlock()
	// Fencing (§5.3): protocol messages from nodes that are no longer
	// chain members are rejected — a zombie ex-head must not inject
	// transactions. Slightly stale view stamps from live members are
	// tolerated; every view change triggers an in-flight resend, and
	// receivers deduplicate by sequence number. Recovery fetches and
	// tail reads carry no chain-ordering obligations.
	switch msg.Kind {
	case transport.KindOpBatch, transport.KindTailAck, transport.KindCleanup:
		if msg.From != "" && r.currentView().Index(msg.From) < 0 {
			return nil
		}
	}
	switch msg.Kind {
	case transport.KindOpBatch:
		// One durable ring append (one flush+fence epoch) for the whole
		// batch. Records within a message are in chain order, so dropping
		// the prefix this replica already holds keeps the remainder
		// contiguous — provided its first record is the one that follows
		// it. Messages are not always in order: after a view change the
		// sender's pipeline forwards new records to this replica while its
		// onViewChange is still resending the older in-flight ones, and a
		// removed replica can still be draining. Appending across the gap
		// would make the older records look like duplicates when they do
		// arrive; they would never execute here, and the tail's range
		// acknowledgment would complete them at the head all the same — an
		// acknowledged write on no surviving replica. So a message that
		// starts past the gap is dropped: the sender still holds its
		// records in flight, and the head's repair ticker re-drives them
		// once the older ones have landed.
		in := r.getRing()
		last := in.LastSeq()
		recs := msg.Batch
		held := 0
		for held < len(recs) && recs[held].Seq <= last {
			held++
		}
		r.cDedup.Add(uint64(held))
		recs = recs[held:]
		if len(recs) == 0 {
			// Only duplicates (a repair resend): upstream never saw this
			// prefix complete; if this tail already executed it, the
			// original ack was lost — regenerate it instead of staying
			// silent.
			r.reackIfExecuted(msg.Seq)
			return nil
		}
		if recs[0].Seq != last+1 {
			r.cGaps.Add(1)
			return nil
		}
		if r.executeAtTail(recs) {
			return nil
		}
		// Executing and sending them on waits for a drain step, which the
		// delivery goroutine takes once no other message is waiting: what
		// queued behind this one is appended first and executes with it. A
		// ring too full to take them — a middle whose clean-ups lag — drops
		// them as it drops a gap: the sender still holds them in flight and
		// its repair ticker resends them once the clean-ups have made room.
		if err := in.AppendBatch(recs); errors.Is(err, pqueue.ErrFull) {
			r.cGaps.Add(1)
		} else if err != nil {
			r.fatal(err)
		}
	case transport.KindTailAck:
		// Head: every transaction up to msg.Seq is complete; release the
		// clients and the admission locks, and truncate the acknowledged
		// in-flight prefix (tail acks cover batches, so this is a range).
		// AckThrough persists the completion floor so a rebooted head
		// knows these are done rather than merely forwarded.
		r.cAcksRecv.Add(1)
		if err := r.ackThrough(msg.Seq); err != nil {
			r.fatal(err)
		}
		r.completeThrough(msg.Seq)
	case transport.KindCleanup:
		r.cCleanups.Add(1)
		if err := r.ackThrough(msg.Seq); err != nil {
			r.fatal(err)
		}
		// A cleanup certifies the tail acknowledged everything through
		// msg.Seq. On a middle that only truncates the in-flight range, but
		// a promoted head may be holding re-admitted admission locks for
		// these very records while the tail's direct ack was addressed to
		// the dead predecessor (stale view) and lost — the cleanup arriving
		// here is the surviving copy of that completion signal, so release
		// the locks too (no-op on replicas holding none).
		r.completeThrough(msg.Seq)
		// Propagate upstream including the head. The head normally learns
		// completion from the tail ack and this hop is a cheap no-op
		// there, but after a failover the ack may have died with the old
		// head — the cleanup chain is then the only route that can reach
		// the promoted head and release its re-admitted admission locks.
		r.cleanUp(r.currentView(), msg.Seq)
	case transport.KindFetch:
		return r.serveFetch(msg)
	case transport.KindStateSnap:
		return r.serveStateSnap(msg)
	case transport.KindStateChunk:
		return r.serveStateChunk(msg)
	case transport.KindStateDone:
		return r.serveStateDone(msg)
	case transport.KindRead:
		payload, err := r.read(msg.Key)
		return answer(transport.KindReadReply, payload, err)
	}
	return nil
}

// answer builds a reply carrying payload, or err.
func answer(kind transport.Kind, payload []byte, err error) *transport.Message {
	if err != nil {
		return &transport.Message{Kind: kind, Err: err.Error()}
	}
	return &transport.Message{Kind: kind, Payload: payload}
}

// serveFetch returns a block image for a recovering neighbour (§5.3).
func (r *Replica) serveFetch(msg *transport.Message) *transport.Message {
	r.cFetches.Add(1)
	b, err := r.heapRange(msg.Off, msg.Len)
	return answer(transport.KindFetchReply, b, err)
}

// heapRange copies n bytes at offset off of the pool's heap, for a
// recovery fetch or a state-transfer chunk. Both come off the wire, so the
// range is checked against the heap, overflow included.
func (r *Replica) heapRange(off, n uint64) ([]byte, error) {
	reg := r.pool.Engine().Heap().Region()
	if size := uint64(reg.Size()); off > size || n > size-off {
		return nil, fmt.Errorf("chain: range [%d,+%d) beyond heap size %d", off, n, size)
	}
	b, err := reg.ReadSlice(int(off), int(n))
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b), nil
}

// ---------------------------------------------------------------------------
// Pipeline (non-head replicas; the head executes in the batcher)
//
// A record runs to completion on one goroutine: the inbox goroutine that
// appended it executes it, sends it on and moves the done cursor, in a drain
// step. Records stay pending in the durable ring until they have been sent
// on: a crash anywhere re-executes and re-sends the suffix, which is safe
// because replicated operations are idempotent and the successor
// deduplicates.

// drain runs drain steps until nothing is pending or the pipeline stops:
// the start and recovery paths, which are not the inbox goroutine, drain
// this way.
func (r *Replica) drain() {
	for r.drainStep() {
	}
}

// drainStep takes the next batch of pending records through execution and
// on down the chain, and reports whether there was one. The transport calls
// it on the inbox goroutine whenever no message is waiting, again while it
// reports one and none arrives: every message that queued meanwhile is
// appended before the next batch is cut, so what arrived during a drain
// executes together, in BatchOps-sized transactions.
func (r *Replica) drainStep() bool {
	r.drainMu.Lock()
	defer r.drainMu.Unlock()
	if !r.live() {
		return false
	}
	batch, err := r.nextBatch(r.cur)
	if err == nil && len(batch) > 0 {
		err = r.run(batch, true)
	}
	if err != nil {
		// The cursor has read past the failed batch, so this incarnation
		// takes no more steps: nothing after the batch runs, is sent on or
		// moves the done cursor. A restart resumes from the durable cursor.
		r.cur = nil
		r.fatal(err)
		return false
	}
	return len(batch) > 0
}

// executeAtTail is a live tail's path for a batch that follows its ring's
// last record with nothing pending ahead of it: the batch executes at once,
// on the delivery goroutine, and never enters the ring. The predecessor
// holds each of its records in flight until this replica acknowledges it,
// so the only thing the tail makes durable is its duplicate floor, once the
// batch has committed (forwardBatch); a crash before that loses only
// records the predecessor resends. It reports whether it took the batch: a
// replica that is not the tail, whose pipeline is stopped — frozen for a
// joiner, rebooting, being promoted — or whose ring has records pending
// appends it instead, to run in ring order.
func (r *Replica) executeAtTail(recs []pqueue.Record) bool {
	r.drainMu.Lock()
	defer r.drainMu.Unlock()
	if !r.live() || r.currentView().Tail() != r.id {
		return false
	}
	if _, pending := r.getRing().Usage(); pending > 0 {
		return false
	}
	if err := r.run(recs, false); err != nil {
		r.cur = nil // as after a failed drain step
		r.fatal(err)
	}
	return true
}

// live reports whether the pipeline incarnation takes steps: it has a
// cursor, which a failed step clears, and has not been stopped. The caller
// holds drainMu.
func (r *Replica) live() bool {
	if r.cur == nil {
		return false
	}
	select {
	case <-r.stopped():
		return false
	default:
		return true
	}
}

// run executes a batch and moves it downstream; inRing tells whether its
// records are in the ring's pending range or, taken at a live tail, in no
// ring at all.
func (r *Replica) run(recs []pqueue.Record, inRing bool) error {
	for rec, err := range r.execute(recs, false) {
		return fmt.Errorf("chain: applying seq %d: %w", rec.Seq, err)
	}
	return r.forwardBatch(recs, inRing)
}

// nextBatch takes whatever pending records are ready under the cursor, up to
// one full batch, to be applied as one local transaction. Finding none — the
// end of every drain — allocates nothing.
func (r *Replica) nextBatch(cur *pqueue.Cursor) ([]pqueue.Record, error) {
	var batch []pqueue.Record
	for bytes := 0; !full(len(batch), bytes, r.cfg.BatchOps); {
		rec, err := cur.Next()
		if errors.Is(err, pqueue.ErrEmpty) {
			break
		}
		if err != nil {
			return nil, err
		}
		if batch == nil {
			batch = make([]pqueue.Record, 0, r.cfg.BatchOps)
		}
		batch = append(batch, rec)
		bytes += len(rec.Args)
	}
	return batch, nil
}

// execute runs recs against the local pool, all in one transaction when
// possible: one intent-log slot and one commit persist for the whole batch
// (and at the head one backup reconciliation). The head admits only
// key-disjoint writes into flight, so combining them changes no outcome; a
// crash mid-batch rolls the whole transaction back (or recovery resolves
// it), and a non-head's records, still pending in the durable ring,
// re-execute on reboot. If the combined transaction fails — one operation
// aborts, or the write set overflows a log slot — the batch splits in half
// and retries (halving.Run), converging to per-record execution. failed
// maps each record that failed alone, by its slot in recs, to its error.
// With carryOn the others still run: the head answers a failed submission
// and numbers the rest. Without it nothing after the first failure runs: a
// non-head executes the chain's records in order, and a failure is fatal to
// it.
func (r *Replica) execute(recs []pqueue.Record, carryOn bool) (failed map[*pqueue.Record]error) {
	_ = halving.Run(recs, func(recs []pqueue.Record) error {
		err := r.pool.Update(func(tx *kamino.Tx) error {
			for _, rec := range recs {
				if err := r.apply(tx, rec); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil && len(recs) == 1 {
			if failed == nil {
				failed = make(map[*pqueue.Record]error, 1)
			}
			failed[&recs[0]] = err
			if carryOn {
				err = nil // its own error; the rest carry on
			}
		}
		return err
	}, r.cSplits.Inc)
	return failed
}

// forwardBatch records one batch as executed and moves it downstream,
// tracing each step before the message that follows from it leaves, so no
// chain event of a write trails its client's completion. A middle sends
// the batch to the successor and then moves the ring's done cursor past it
// — the records were durable here before they were executed, so the cursor
// move is the only persist and it follows the send; a crash in between
// re-executes and re-sends the batch, which the successor deduplicates.
// The tail acknowledges the whole prefix to the head before retiring it,
// so a crash can only re-execute and re-ack, never strand a client.
//
// A batch a live tail took from no ring (inRing false) persists first, now
// that it has committed: nothing is sent on a record this replica's ring
// does not hold, so if the view has given the tail a successor meanwhile
// the batch enters the ring in flight; otherwise only the duplicate floor
// moves, one 8-byte persist that never names an uncommitted record.
func (r *Replica) forwardBatch(recs []pqueue.Record, inRing bool) error {
	r.cApplied.Add(uint64(len(recs)))
	for _, rec := range recs {
		r.tr.ChainApply(rec.Seq)
	}
	last := recs[len(recs)-1]
	r.mu.Lock()
	r.lastExec = last.Seq
	r.mu.Unlock()
	view, ring := r.currentView(), r.getRing()
	succ, hasSucc := view.Successor(r.id)
	if !inRing {
		var err error
		if hasSucc {
			err = ring.AppendExecuted(recs)
		} else {
			err = ring.SeedSeq(last.Seq)
		}
		if err != nil {
			return err
		}
	}
	if hasSucc {
		for _, rec := range recs {
			r.tr.ChainForward(rec.Seq)
		}
		r.cForwarded.Add(uint64(len(recs)))
		r.send(view, succ, recs)
		return ring.MarkDone(last.Seq)
	}
	if view.Tail() != r.id {
		// No successor and not the tail: the view no longer holds this
		// replica, and its drain is finishing the batch it had in hand when
		// onViewChange installed that view (stopExecutor waits for it).
		// It must not take "no successor" for "tail": the head may still
		// hold the old view, in which this replica passes the fencing check,
		// and would complete clients and truncate records that no surviving
		// replica has executed — an acknowledged write lost on every member.
		return nil
	}
	// Tail: one acknowledgment completes the whole prefix at the head,
	// and one cleanup retires it upstream.
	for _, rec := range recs {
		r.tr.ChainAck(rec.Seq)
	}
	_ = r.ackTail(view, last.Seq, len(recs), false)
	return ring.DropThrough(last.Seq)
}

// ackTail is the tail's acknowledgment of every record through seq, n of
// them: a KindTailAck to the head, which completes them there, and a
// clean-up to the predecessor unless that is the head, which the
// acknowledgment has reached. With wait the acknowledgment is a Call that
// returns once the head has handled it, and an unreachable head is
// reported, with no clean-up sent; otherwise a failed send is not: the
// repair ticker regenerates a lost acknowledgment.
func (r *Replica) ackTail(view membership.View, seq uint64, n int, wait bool) error {
	ack := &transport.Message{Kind: transport.KindTailAck, From: r.id, ViewID: view.ID, Seq: seq}
	if wait {
		if _, err := r.cfg.Transport.Call(view.Head(), ack); err != nil {
			return err
		}
	} else {
		_ = r.cfg.Transport.Send(view.Head(), ack)
	}
	r.cTailAcks.Add(uint64(n))
	if view.Index(r.id) > 1 { // the predecessor is not the head
		r.cleanUp(view, seq)
	}
	return nil
}

// cleanUp tells the predecessor, if there is one, that the tail has
// acknowledged every record through seq. A failed send is not reported.
func (r *Replica) cleanUp(view membership.View, seq uint64) {
	if pred, ok := view.Predecessor(r.id); ok {
		_ = r.cfg.Transport.Send(pred, &transport.Message{
			Kind: transport.KindCleanup, From: r.id, ViewID: view.ID, Seq: seq,
		})
	}
}
