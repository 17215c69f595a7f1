package chain

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kaminotx/internal/halving"
	"kaminotx/internal/heap"
	"kaminotx/internal/membership"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
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
	logEntriesPerSlot = 512                   // so a full hop batch usually commits as one transaction (executeBatch)
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

	Registry  *Registry
	Transport transport.Transport
	Manager   *membership.Manager

	// Setup prepares application state on the replica's pool, once,
	// before the replica goes on the air. On a fresh pool it creates the
	// state (e.g. the hash table), deterministically, so that every
	// replica's is identical; on a joiner's pool it runs after the
	// transferred image is in place and attaches to what arrived.
	Setup func(pool *kamino.Pool) error

	// Trace, when non-nil, records the replica's chain protocol events
	// (forward, apply, ack — actor "chain/<id>") and its local pool's
	// device and transaction events. The head mints a chain-wide trace
	// id per submitted transaction; it travels with the record in every
	// KindOpBatch message and in the persistent queues, so one
	// transaction's events correlate across all replicas.
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

	pool    *kamino.Pool
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

	tr        *trace.Tracer // chain protocol events; nil when untraced
	traceBase uint64        // high bits of head-minted trace ids
	traceCtr  atomic.Uint64

	mu       sync.Mutex
	view     membership.View
	lastExec uint64
	promoted bool // head engine active (initial head or promoted later)

	notify      chan struct{}
	submitCh    chan *submitReq // head: admitted submissions awaiting a batch
	stopMu      sync.Mutex
	stop        chan struct{}
	wg          sync.WaitGroup
	watchCancel func() // removes this replica's membership watcher

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
	lockedBy map[uint64]struct{}   // held abstract lock keys
	seqLocks map[uint64][]uint64   // in-flight seq -> its lock keys
	waiters  map[uint64]chan error // seq -> client completion
	seqTrace map[uint64]uint64     // in-flight seq -> its trace id
	execErr  error                 // fatal replica error
}

// submitReq is one admitted client operation waiting for the head batcher.
type submitReq struct {
	name string
	args []byte
	fn   WriteFunc
	keys []uint64
	done chan error
}

// NewReplica builds one replica and registers its transport handler. The
// initial view decides its role; the head gets a backup per cfg.Alpha.
func NewReplica(id transport.NodeID, cfg Config) (*Replica, error) {
	cfg = cfg.withDefaults()
	if cfg.Registry == nil || cfg.Transport == nil || cfg.Manager == nil {
		return nil, errors.New("chain: Registry, Transport and Manager are required")
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
// transfer has filled its heap. runSetup is false for joiners, which run
// Setup themselves once the copied image is in place.
func newReplicaCore(id transport.NodeID, cfg Config, isHead, runSetup bool) (*Replica, error) {
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
	// Last of what can fail: Setup may leave state keyed by the pool (the
	// KV map cache) that only Close drops.
	if cfg.Setup != nil && runSetup {
		if err := cfg.Setup(pool); err != nil {
			return nil, err
		}
	}

	o := obs.New("chain/" + string(id))
	r := &Replica{
		id:         id,
		cfg:        cfg,
		pool:       pool,
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
		notify:     make(chan struct{}, 1),
		submitCh:   make(chan *submitReq, 1024),
		lockedBy:   make(map[uint64]struct{}),
		seqLocks:   make(map[uint64][]uint64),
		waiters:    make(map[uint64]chan error),
		seqTrace:   make(map[uint64]uint64),
	}
	// The ring region's device counters surface the persist cost of the
	// chain protocol itself (batching exists to shrink these).
	ringReg.ExportObs(o, "nvm.ring")
	// Live depths of the ring's two ranges: records waiting to execute and
	// records forwarded but not yet acked by the tail. A growing inflight
	// gauge means the downstream chain is the bottleneck.
	o.Gauge("input_records", func() uint64 { _, n := r.ringCounts(); return uint64(n) })
	o.Gauge("inflight_records", func() uint64 { n, _ := r.ringCounts(); return uint64(n) })
	// Truncation telemetry: each range's live occupancy and high-water
	// mark prove the acknowledged-prefix pruning keeps the ring bounded.
	o.Gauge("inputq_bytes", func() uint64 { _, in := r.getRing().Usage(); return in.Bytes })
	o.Gauge("inputq_highwater", func() uint64 { _, in := r.getRing().Usage(); return in.HighWater })
	o.Gauge("inflightq_bytes", func() uint64 { fl, _ := r.getRing().Usage(); return fl.Bytes })
	o.Gauge("inflightq_highwater", func() uint64 { fl, _ := r.getRing().Usage(); return fl.HighWater })
	if cfg.Trace != nil {
		r.tr = cfg.Trace.Tracer("chain/" + string(id))
		r.traceBase = fnv64a(string(id)) &^ 0xFFFFFFFF
	}
	r.lockCond = sync.NewCond(&r.headMu)
	return r, nil
}

// goLive puts a constructed replica on the air: transport handler,
// membership watcher, pipeline.
func (r *Replica) goLive() error {
	if err := r.cfg.Transport.Register(r.id, r.handle); err != nil {
		return err
	}
	r.watchCancel = r.cfg.Manager.Watch(r.onViewChange)
	r.startExecutor()
	return nil
}

// fnv64a hashes a node id into the high bits of its trace-id space, so
// ids minted by different heads (before/after promotion) never collide.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
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
// execution floor, sequence counter, queue spans, and the admission-lock
// table. String() renders the one-line form a wedge dump prints.
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
	// Waiters counts transactions parked on admission locks.
	Waiters int `json:"waiters"`
	// LockedKeys are the admission-lock keys currently held, sorted;
	// LockSeqs the sequence numbers holding them, sorted.
	LockedKeys []uint64 `json:"locked_keys"`
	// LockSeqs are the sequence numbers holding admission locks, sorted.
	LockSeqs []uint64 `json:"lock_seqs"`
}

// String renders the info as one line.
func (d DebugInfo) String() string {
	return fmt.Sprintf(
		"lastExec=%d nextSeq=%d input.last=%d inflight=%d[%d..%d] waiters=%d lockedKeys=%v lockSeqs=%v",
		d.LastExec, d.NextSeq, d.InputLast, d.Inflight, d.InflightFloor, d.InflightLast,
		d.Waiters, d.LockedKeys, d.LockSeqs)
}

// DebugInfo samples the replica's repair-relevant state. Safe to call from
// any goroutine at any time, a reboot included: the ring is read with the
// power held, so the queue spans are the pre-crash ring's or the recovered
// one's.
func (r *Replica) DebugInfo() DebugInfo {
	r.power.RLock()
	ring := r.getRing()
	recs, _ := ring.Inflight()
	inputLast := ring.LastSeq()
	r.power.RUnlock()
	var flFloor, flLast uint64
	if len(recs) > 0 {
		flFloor, flLast = recs[0].Seq, recs[len(recs)-1].Seq
	}
	r.headMu.Lock()
	locked := make([]uint64, 0, len(r.lockedBy))
	for k := range r.lockedBy {
		locked = append(locked, k)
	}
	seqs := make([]uint64, 0, len(r.seqLocks))
	for s := range r.seqLocks {
		seqs = append(seqs, s)
	}
	nextSeq := r.nextSeq
	waiters := len(r.waiters)
	r.headMu.Unlock()
	sort.Slice(locked, func(i, j int) bool { return locked[i] < locked[j] })
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return DebugInfo{
		LastExec:      r.lastExecSeq(),
		NextSeq:       nextSeq,
		InputLast:     inputLast,
		Inflight:      len(recs),
		InflightFloor: flFloor,
		InflightLast:  flLast,
		Waiters:       waiters,
		LockedKeys:    locked,
		LockSeqs:      seqs,
	}
}

// QueueUsage samples the ring's two ranges (pending input, in-flight) and
// the capacity they share; the chaos schedule reads it to show
// acknowledged-prefix truncation empties the ring once the load stops. It reads
// the ring's volatile cursors only, never its region, so it needs no
// ordering against a reboot beyond getRing's.
func (r *Replica) QueueUsage() (input, inflight pqueue.Usage, capacity uint64) {
	q := r.getRing()
	inflight, input = q.Usage()
	return input, inflight, q.Capacity()
}

// ringCounts is how many records each range of the ring holds (0, 0 on a
// read error). Counting walks record headers in the region, hence power.
func (r *Replica) ringCounts() (inflight, pending int) {
	r.power.RLock()
	defer r.power.RUnlock()
	inflight, pending, _ = r.getRing().Counts()
	return inflight, pending
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

// stopExecutor halts the pipeline goroutines; startExecutor restarts them.
func (r *Replica) stopExecutor() {
	r.stopMu.Lock()
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.stopMu.Unlock()
	r.wg.Wait()
}

// startExecutor spawns one pipeline incarnation: the executor applies pending
// records and hands them to the forwarder, which batches them downstream,
// while the batcher coalesces head submissions. The stop channel and the
// executor→forwarder channel are per-incarnation so a Reboot never mixes
// records from the pre-crash ring into the new pipeline.
func (r *Replica) startExecutor() {
	r.stopMu.Lock()
	r.stop = make(chan struct{})
	stop := r.stop
	r.stopMu.Unlock()
	fwd := make(chan pqueue.Record, 1024)
	r.wg.Add(4)
	go r.executor(stop, fwd)
	go r.forwarder(stop, fwd)
	go r.batcher(stop)
	go r.reacker(stop)
}

func (r *Replica) currentView() membership.View {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view
}

// Close stops the replica. Clients blocked in Submit are failed with a
// redirect so they can retry against the chain's current head.
func (r *Replica) Close() error {
	if r.watchCancel != nil {
		r.watchCancel()
	}
	r.stopExecutor()
	r.cfg.Transport.Unregister(r.id)
	r.failWaiters(&RedirectError{ViewID: r.cfg.Manager.View().ID, Head: r.cfg.Manager.View().Head()})
	// The KV operations cache their attached map per pool; without this the
	// cache would keep the closed pool and its NVM regions reachable.
	kvMaps.Delete(r.pool)
	return r.pool.Close()
}

// failWaiters errors every pending head submission — both those already
// assigned a sequence number (waiters) and those still queued for the
// batcher — releasing their admission locks. Used when this replica stops
// being able to complete them: removal from the view, or Close.
func (r *Replica) failWaiters(err error) {
	r.headMu.Lock()
	var dones []chan error
	for seq, ch := range r.waiters {
		dones = append(dones, ch)
		delete(r.waiters, seq)
		delete(r.seqTrace, seq)
		for _, k := range r.seqLocks[seq] {
			delete(r.lockedBy, k)
		}
		delete(r.seqLocks, seq)
	}
	r.lockCond.Broadcast()
	r.headMu.Unlock()
	for _, ch := range dones {
		ch <- err
	}
	// Admitted submissions the batcher never picked up.
	for {
		select {
		case req := <-r.submitCh:
			r.releaseKeys(req.keys)
			req.done <- err
		default:
			return
		}
	}
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

func (r *Replica) kick() {
	select {
	case r.notify <- struct{}{}:
	default:
	}
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

// ErrNotHead reports a Submit on a non-head replica.
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

// Submit executes a registered write operation through the chain and waits
// until the tail acknowledges it. Only the head accepts submissions;
// elsewhere a RedirectError carries the current view so the client can
// retry against the real head instead of silently failing.
func (r *Replica) Submit(name string, args []byte) error {
	if err := r.Err(); err != nil {
		return err
	}
	view := r.currentView()
	if view.Head() != r.id {
		return r.redirect(view)
	}
	fn, keysFn, err := r.cfg.Registry.write(name)
	if err != nil {
		return err
	}
	keys := keysFn(r.pool, args)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	// Admission control (paper §5.1): a transaction whose lock keys
	// intersect an in-flight transaction's waits here until the tail
	// acknowledgment releases them.
	r.admit(keys)

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
	r.stopMu.Lock()
	stop := r.stop
	r.stopMu.Unlock()
	req := &submitReq{name: name, args: args, fn: fn, keys: keys, done: make(chan error, 1)}
	select {
	case r.submitCh <- req:
	case <-stop:
		r.releaseKeys(keys)
		return r.redirect(r.currentView())
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
			r.stopMu.Lock()
			stop = r.stop
			r.stopMu.Unlock()
			// The closed channel is replaced only when the executor
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
	for {
		batch, ok := gather(stop, r.submitCh, r.cfg.BatchOps, func(req *submitReq) int { return len(req.args) })
		if !ok {
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

// gather forms a batch from a pipeline channel: it waits for a first item
// on ch, then takes whatever has already queued behind it until the batch
// is full — it never waits for one to fill. It returns false once stop
// closes.
func gather[T any](stop <-chan struct{}, ch <-chan T, maxOps int, size func(T) int) ([]T, bool) {
	var first T
	select {
	case <-stop:
		return nil, false
	case first = <-ch:
	}
	batch := append(make([]T, 0, maxOps), first)
	for bytes := size(first); !full(len(batch), bytes, maxOps); {
		select {
		case v := <-ch:
			batch = append(batch, v)
			bytes += size(v)
		default:
			return batch, true
		}
	}
	return batch, true
}

// applyReqs executes admitted submissions against the local pool, all in one
// transaction when possible: one intent-log slot, one commit persist, one
// backup reconciliation for the whole batch. Admission control guarantees
// batch members touch disjoint lock keys, so combining them changes no
// outcome. If the combined transaction fails — one operation aborts, or the
// write set overflows a log slot — the batch splits in half and retries,
// converging to per-operation execution and per-operation errors.
func (r *Replica) applyReqs(reqs []*submitReq, failed map[*submitReq]error) {
	_ = halving.Run(reqs, func(reqs []*submitReq) error {
		err := r.pool.Update(func(tx *kamino.Tx) error {
			for _, req := range reqs {
				if err := req.fn(tx, r.pool, req.args); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil && len(reqs) == 1 {
			failed[reqs[0]], err = err, nil // its own error; the rest carry on
		}
		return err
	}, r.cSplits.Inc)
}

// processBatch executes a batch of admitted submissions in order, persists
// the survivors to the ring's in-flight range under one flush+fence epoch,
// and forwards them downstream as one message. Aborted operations (Figure 8)
// are answered immediately and consume no sequence number.
func (r *Replica) processBatch(reqs []*submitReq) {
	view := r.currentView()
	recs := make([]pqueue.Record, 0, len(reqs))
	accepted := make([]*submitReq, 0, len(reqs))
	failed := make(map[*submitReq]error)
	r.applyReqs(reqs, failed)
	for _, req := range reqs {
		if err, ok := failed[req]; ok {
			// Aborted at the head: never admitted downstream.
			r.releaseKeys(req.keys)
			req.done <- err
			continue
		}
		var traceID uint64
		if r.tr != nil {
			traceID = r.traceBase | r.traceCtr.Add(1)
		}
		r.headMu.Lock()
		r.nextSeq++
		seq := r.nextSeq
		r.seqLocks[seq] = req.keys
		r.waiters[seq] = req.done
		r.seqTrace[seq] = traceID
		r.headMu.Unlock()
		r.mu.Lock()
		r.lastExec = seq
		r.mu.Unlock()
		r.cSubmits.Add(1)
		r.tr.ChainApply(traceID, seq)
		recs = append(recs, pqueue.Record{Seq: seq, Trace: traceID, Name: req.name, Args: req.args})
		accepted = append(accepted, req)
	}
	if len(recs) == 0 {
		return
	}
	last := recs[len(recs)-1].Seq
	if len(view.Members) == 1 {
		// Degenerate single-node chain: complete immediately.
		r.completeThrough(last)
		return
	}
	if err := r.getRing().AppendExecuted(recs); err != nil {
		r.headMu.Lock()
		// The numbers go back with the records: downstream appends only the
		// record that follows its last, so a number that was never sent
		// would stall every later one.
		r.nextSeq = recs[0].Seq - 1
		for _, rec := range recs {
			for _, k := range r.seqLocks[rec.Seq] {
				delete(r.lockedBy, k)
			}
			delete(r.seqLocks, rec.Seq)
			delete(r.waiters, rec.Seq)
			delete(r.seqTrace, rec.Seq)
		}
		r.lockCond.Broadcast()
		r.headMu.Unlock()
		for _, req := range accepted {
			req.done <- err
		}
		return
	}
	succ, _ := view.Successor(r.id)
	// The clients keep waiting for the tail acknowledgment even if the
	// send fails: repair resends from the in-flight range.
	r.send(view, succ, recs)
	for _, rec := range recs {
		r.tr.ChainForward(rec.Trace, rec.Seq)
	}
	r.cForwarded.Add(uint64(len(recs)))
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

// completeThrough finishes every in-flight transaction with seq <= ackSeq:
// admission locks release, clients unblock, and the head emits one ack
// trace event per transaction (tail acks cover a whole prefix, so a single
// message may complete many).
func (r *Replica) completeThrough(ackSeq uint64) {
	type completion struct {
		seq   uint64
		trace uint64
		ch    chan error
	}
	var dones []completion
	r.headMu.Lock()
	for seq, ch := range r.waiters {
		if seq <= ackSeq {
			dones = append(dones, completion{seq, r.seqTrace[seq], ch})
			delete(r.waiters, seq)
			delete(r.seqTrace, seq)
		}
	}
	// Locks release for every covered seq, waiter or not (a promoted head
	// holds lock entries for re-driven transactions with no client).
	for seq, keys := range r.seqLocks {
		if seq <= ackSeq {
			for _, k := range keys {
				delete(r.lockedBy, k)
			}
			delete(r.seqLocks, seq)
		}
	}
	r.lockCond.Broadcast()
	r.headMu.Unlock()
	sort.Slice(dones, func(i, j int) bool { return dones[i].seq < dones[j].seq })
	for _, d := range dones {
		r.tr.ChainAck(d.trace, d.seq)
		d.ch <- nil
	}
}

// Read executes a registered read operation at the tail and returns its
// payload. Like Submit, a non-head returns a RedirectError naming the
// current head.
func (r *Replica) Read(name string, args []byte) ([]byte, error) {
	view := r.currentView()
	if view.Head() != r.id {
		return nil, r.redirect(view)
	}
	if view.Tail() == r.id {
		fn, err := r.cfg.Registry.read(name)
		if err != nil {
			return nil, err
		}
		return fn(r.pool, args)
	}
	reply, err := r.cfg.Transport.Call(view.Tail(), &transport.Message{
		Kind: transport.KindRead, From: r.id, ViewID: view.ID,
		Name: name, Args: args,
	})
	if err != nil {
		return nil, err
	}
	if err := reply.Error(); err != nil {
		return nil, err
	}
	return reply.Payload, nil
}

// admit acquires the abstract locks, blocking while any key is held by an
// in-flight transaction (a dependent transaction, in the paper's terms).
func (r *Replica) admit(keys []uint64) {
	r.headMu.Lock()
	defer r.headMu.Unlock()
	for {
		free := true
		for _, k := range keys {
			if _, held := r.lockedBy[k]; held {
				free = false
				break
			}
		}
		if free {
			break
		}
		r.lockCond.Wait()
	}
	for _, k := range keys {
		r.lockedBy[k] = struct{}{}
	}
}

// releaseKeys frees admission locks directly (abort path: no seq assigned).
func (r *Replica) releaseKeys(keys []uint64) {
	r.headMu.Lock()
	for _, k := range keys {
		delete(r.lockedBy, k)
	}
	r.lockCond.Broadcast()
	r.headMu.Unlock()
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
		if err := in.AppendBatch(recs); err != nil {
			r.fatal(err)
			return nil
		}
		r.kick()
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
		view := r.currentView()
		// Propagate upstream including the head. The head normally learns
		// completion from the tail ack and this hop is a cheap no-op
		// there, but after a failover the ack may have died with the old
		// head — the cleanup chain is then the only route that can reach
		// the promoted head and release its re-admitted admission locks.
		if pred, ok := view.Predecessor(r.id); ok {
			_ = r.cfg.Transport.Send(pred, &transport.Message{
				Kind: transport.KindCleanup, From: r.id, ViewID: view.ID, Seq: msg.Seq,
			})
		}
	case transport.KindFetch:
		return r.serveFetch(msg)
	case transport.KindStateSnap:
		return r.serveStateSnap(msg)
	case transport.KindStateChunk:
		return r.serveStateChunk(msg)
	case transport.KindStateDone:
		return r.serveStateDone(msg)
	case transport.KindRead:
		fn, err := r.cfg.Registry.read(msg.Name)
		if err != nil {
			return &transport.Message{Kind: transport.KindReadReply, Err: err.Error()}
		}
		payload, err := fn(r.pool, msg.Args)
		if err != nil {
			return &transport.Message{Kind: transport.KindReadReply, Err: err.Error()}
		}
		return &transport.Message{Kind: transport.KindReadReply, Payload: payload}
	}
	return nil
}

// serveFetch returns block images for a recovering neighbour (§5.3).
func (r *Replica) serveFetch(msg *transport.Message) *transport.Message {
	r.cFetches.Add(1)
	reply := &transport.Message{Kind: transport.KindFetchReply}
	hp := r.pool.Engine().Heap()
	for i, obj := range msg.Objs {
		class := int(msg.Classes[i])
		n := heap.BlockHeaderSize + class
		b, err := hp.Region().ReadSlice(int(obj)-heap.BlockHeaderSize, n)
		if err != nil {
			return &transport.Message{Kind: transport.KindFetchReply, Err: err.Error()}
		}
		img := make([]byte, n)
		copy(img, b)
		reply.Blocks = append(reply.Blocks, img)
	}
	return reply
}

// ---------------------------------------------------------------------------
// Pipeline (non-head replicas; the head executes in the batcher)
//
// The executor applies the ring's pending records and streams them to the
// forwarder over a channel, so this replica can execute record k+1 while
// its downstream work for record k (send, cursor move) is still in
// progress. Records stay pending in the durable ring until the forwarder
// has sent them on: a crash anywhere re-executes and re-sends the suffix,
// which is safe because replicated operations are idempotent and the
// successor deduplicates.

func (r *Replica) executor(stop chan struct{}, fwd chan pqueue.Record) {
	defer r.wg.Done()
	cur := r.getRing().Cursor()
	for {
		select {
		case <-stop:
			return
		case <-r.notify:
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch, err := r.nextBatch(cur)
			if err == nil && len(batch) > 0 {
				err = r.executeBatch(batch)
			}
			if err != nil {
				r.fatal(err)
				return
			}
			if len(batch) == 0 {
				break
			}
			for _, rec := range batch {
				select {
				case fwd <- rec:
				case <-stop:
					return
				}
			}
		}
	}
}

// nextBatch takes whatever pending records are ready under the cursor, up to
// one full batch, to be applied as one local transaction.
func (r *Replica) nextBatch(cur *pqueue.Cursor) ([]pqueue.Record, error) {
	batch := make([]pqueue.Record, 0, r.cfg.BatchOps)
	for bytes := 0; !full(len(batch), bytes, r.cfg.BatchOps); {
		rec, err := cur.Next()
		if errors.Is(err, pqueue.ErrEmpty) {
			break
		}
		if err != nil {
			return nil, err
		}
		batch = append(batch, rec)
		bytes += len(rec.Args)
	}
	return batch, nil
}

// executeBatch applies a batch of replicated operations as one local
// transaction: one intent-log slot, one commit persist for the whole batch.
// The head admits only key-disjoint operations into flight, so combining
// them is outcome-equivalent to applying them one by one; a crash mid-batch
// rolls the whole transaction back (or recovery resolves it), and the
// records — still pending in the durable ring — re-execute on reboot. If the
// combined transaction fails (one operation aborts, or the write set
// overflows a log slot), the batch splits in half and retries, converging to
// per-operation execution, where a failure is fatal to the replica.
func (r *Replica) executeBatch(recs []pqueue.Record) error {
	return halving.Run(recs, func(recs []pqueue.Record) error {
		err := r.pool.Update(func(tx *kamino.Tx) error {
			for _, rec := range recs {
				fn, _, err := r.cfg.Registry.write(rec.Name)
				if err != nil {
					return err
				}
				if err := fn(tx, r.pool, rec.Args); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("chain: applying seq %d..%d: %w", recs[0].Seq, recs[len(recs)-1].Seq, err)
		}
		r.cApplied.Add(uint64(len(recs)))
		for _, rec := range recs {
			r.tr.ChainApply(rec.Trace, rec.Seq)
		}
		r.mu.Lock()
		r.lastExec = recs[len(recs)-1].Seq
		r.mu.Unlock()
		return nil
	}, r.cSplits.Inc)
}

// forwarder drains executed records and moves them along the chain in
// batches: whatever the executor has finished by the time the previous
// batch's persist+send completes travels together.
func (r *Replica) forwarder(stop chan struct{}, fwd chan pqueue.Record) {
	defer r.wg.Done()
	for {
		batch, ok := gather(stop, fwd, r.cfg.BatchOps, func(rec pqueue.Record) int { return len(rec.Args) })
		if !ok {
			return
		}
		if err := r.forwardBatch(batch); err != nil {
			r.fatal(err)
			return
		}
	}
}

// forwardBatch moves one batch of executed records downstream. A middle
// sends it to the successor and then moves the ring's done cursor past it —
// the records were durable here before they were executed, so the cursor
// move is the only persist and it follows the send; a crash in between
// re-executes and re-sends the batch, which the successor deduplicates. The
// tail acknowledges the whole prefix to the head before retiring it, so a
// crash can only re-execute and re-ack, never strand a client.
func (r *Replica) forwardBatch(recs []pqueue.Record) error {
	view := r.currentView()
	last := recs[len(recs)-1]
	if succ, ok := view.Successor(r.id); ok {
		r.send(view, succ, recs)
		for _, rec := range recs {
			r.tr.ChainForward(rec.Trace, rec.Seq)
		}
		r.cForwarded.Add(uint64(len(recs)))
		return r.getRing().MarkDone(last.Seq)
	}
	if view.Tail() != r.id {
		// No successor and not the tail: the view no longer holds this
		// replica, and its pipeline is finishing the batch it had in hand
		// when onViewChange installed that view (stopExecutor waits for it).
		// It must not take "no successor" for "tail": the head may still
		// hold the old view, in which this replica passes the fencing check,
		// and would complete clients and truncate records that no surviving
		// replica has executed — an acknowledged write lost on every member.
		return nil
	}
	// Tail: one acknowledgment completes the whole prefix at the head,
	// and one cleanup retires it upstream.
	_ = r.cfg.Transport.Send(view.Head(), &transport.Message{
		Kind: transport.KindTailAck, From: r.id, ViewID: view.ID, Seq: last.Seq,
	})
	for _, rec := range recs {
		r.tr.ChainAck(rec.Trace, rec.Seq)
	}
	r.cTailAcks.Add(uint64(len(recs)))
	if pred, ok := view.Predecessor(r.id); ok && pred != view.Head() {
		_ = r.cfg.Transport.Send(pred, &transport.Message{
			Kind: transport.KindCleanup, From: r.id, ViewID: view.ID, Seq: last.Seq,
		})
	}
	return r.getRing().DropThrough(last.Seq)
}
