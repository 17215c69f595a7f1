package chain

import (
	"errors"
	"fmt"
	"time"

	"kaminotx/internal/transport"
)

// Replica catch-up and rejoin (§5.2-§5.3): a removed or replacement node
// cannot simply AddTail into the chain — its heap is empty (or stale) and
// the chain's logs no longer reach back to the beginning of time. Instead
// it performs state transfer from the chain's current tail (the donor):
//
//  1. KindStateSnap freezes the donor at a transaction boundary (pipeline
//     stopped, async engine work drained) and returns a snapshot nonce,
//     the heap image size, the snapshot's sequence floor, and the donor's
//     pending suffix (the ring records it has not executed and handed on).
//  2. KindStateChunk calls copy the heap image in bounded chunks — the
//     bulk-object analogue of the recovery KindFetch path. The nonce
//     guards against the donor crashing or timing out mid-transfer.
//  3. The joiner reloads its engine over the copied image, seeds its
//     ring's duplicate filter with the snapshot floor, replays the pending
//     suffix into its own ring, registers, and joins the view via
//     membership.AddTail.
//  4. KindStateDone releases the donor, which resumes its pipeline.
//
// The frozen donor keeps serving tail reads; writes stall (no tail acks)
// for the duration of the copy, which is the availability dip the chaos
// experiment measures. Everything the donor executed before the freeze is
// inside the image; everything it had not executed is still pending in its
// durable ring and is re-forwarded to the joiner after the view change, so
// records are never lost and re-execution is safe by the registered
// operations' idempotence contract.

// errSnapBusy reports a donor already serving another snapshot.
var errSnapBusy = errors.New("chain: state snapshot already in progress")

// serveStateSnap freezes this replica and describes a snapshot.
func (r *Replica) serveStateSnap(msg *transport.Message) *transport.Message {
	view := r.currentView()
	if view.Index(r.id) < 0 {
		return &transport.Message{Kind: transport.KindError, Err: "chain: donor is not a chain member"}
	}
	if view.Head() == r.id {
		// Freezing the head would stall admission for every client and
		// promote nothing; callers pick the tail as donor.
		return &transport.Message{Kind: transport.KindError, Err: "chain: head cannot donate a state snapshot"}
	}
	r.snapMu.Lock()
	if r.snapNonce != 0 {
		r.snapMu.Unlock()
		return &transport.Message{Kind: transport.KindError, Err: errSnapBusy.Error()}
	}
	r.snapCtr++
	nonce := r.snapCtr
	r.snapNonce = nonce
	r.snapMu.Unlock()

	// Freeze at a transaction boundary: the executor finishes its current
	// batch and stops, then the engine drains asynchronous work. From here
	// until release the heap image is immutable.
	r.stopExecutor()
	r.pool.Drain()

	fail := func(err error) *transport.Message {
		r.releaseSnapshot(nonce)
		return &transport.Message{Kind: transport.KindError, Err: err.Error()}
	}
	snapSeq, err := executedFloor(r.getRing())
	if err != nil {
		return fail(err)
	}
	suffix, err := r.getRing().Pending()
	if err != nil {
		return fail(err)
	}
	// Watchdog: if the joiner dies mid-copy nobody would ever send
	// KindStateDone; resume rather than stay frozen forever.
	r.snapMu.Lock()
	r.snapTimer = time.AfterFunc(snapTimeout, func() { r.releaseSnapshot(nonce) })
	r.snapMu.Unlock()
	return &transport.Message{
		Kind: transport.KindStateSnap, From: r.id, ViewID: view.ID,
		Snap: nonce, Len: uint64(r.pool.Engine().Heap().Region().Size()),
		Seq: snapSeq, Batch: suffix,
	}
}

// serveStateChunk returns one byte range of the frozen heap image.
func (r *Replica) serveStateChunk(msg *transport.Message) *transport.Message {
	r.snapMu.Lock()
	ok := r.snapNonce != 0 && r.snapNonce == msg.Snap
	r.snapMu.Unlock()
	if !ok {
		return &transport.Message{Kind: transport.KindError, Err: "chain: unknown or expired snapshot"}
	}
	reg := r.pool.Engine().Heap().Region()
	if msg.Off+msg.Len > uint64(reg.Size()) {
		return &transport.Message{Kind: transport.KindError,
			Err: fmt.Sprintf("chain: chunk [%d,%d) beyond heap size %d", msg.Off, msg.Off+msg.Len, reg.Size())}
	}
	b, err := reg.ReadSlice(int(msg.Off), int(msg.Len))
	if err != nil {
		return &transport.Message{Kind: transport.KindError, Err: err.Error()}
	}
	out := make([]byte, len(b))
	copy(out, b)
	return &transport.Message{Kind: transport.KindStateChunk, Snap: msg.Snap, Off: msg.Off, Payload: out}
}

// serveStateDone releases the snapshot and resumes the pipeline.
func (r *Replica) serveStateDone(msg *transport.Message) *transport.Message {
	r.releaseSnapshot(msg.Snap)
	return &transport.Message{Kind: transport.KindStateDone}
}

// releaseSnapshot unfreezes the donor if nonce still names the live
// snapshot (the reboot path and the watchdog both invalidate it).
func (r *Replica) releaseSnapshot(nonce uint64) {
	r.snapMu.Lock()
	if nonce == 0 || r.snapNonce != nonce {
		r.snapMu.Unlock()
		return
	}
	r.snapNonce = 0
	if r.snapTimer != nil {
		r.snapTimer.Stop()
		r.snapTimer = nil
	}
	r.snapMu.Unlock()
	r.startExecutor()
	r.kick()
}

// JoinAsTail builds a replacement replica, catches it up by state transfer
// from the chain's current tail, and joins it to the view as the new tail.
// The returned replica is live and a chain member. cfg must match the
// chain's (same Registry, Transport, Manager, sizes); Setup runs after the
// image has arrived, to attach to the application state inside it.
func JoinAsTail(id transport.NodeID, cfg Config) (*Replica, error) {
	cfg = cfg.withDefaults()
	if cfg.Registry == nil || cfg.Transport == nil || cfg.Manager == nil {
		return nil, errors.New("chain: Registry, Transport and Manager are required")
	}
	view := cfg.Manager.View()
	if view.Index(id) >= 0 {
		return nil, fmt.Errorf("chain: %s is already a chain member", id)
	}
	donor := view.Tail()

	r, err := newReplicaCore(id, cfg, false, false)
	if err != nil {
		return nil, err
	}
	abort := func(err error) (*Replica, error) {
		kvMaps.Delete(r.pool)
		r.pool.Close()
		return nil, err
	}

	// 1. Freeze the donor and learn the snapshot's shape.
	snap, err := cfg.Transport.Call(donor, &transport.Message{Kind: transport.KindStateSnap, From: id, ViewID: view.ID})
	if err != nil {
		return abort(fmt.Errorf("chain: state snapshot from %s: %w", donor, err))
	}
	if err := snap.Error(); err != nil {
		return abort(fmt.Errorf("chain: state snapshot from %s: %w", donor, err))
	}
	nonce, snapSeq := snap.Snap, snap.Seq
	release := func() {
		_, _ = cfg.Transport.Call(donor, &transport.Message{Kind: transport.KindStateDone, From: id, Snap: nonce})
	}
	reg := r.pool.Engine().Heap().Region()
	if snap.Len != uint64(reg.Size()) {
		release()
		return abort(fmt.Errorf("chain: donor heap is %d bytes, local heap %d — configs differ", snap.Len, reg.Size()))
	}

	// 2. Copy the heap image in bounded chunks and persist each one.
	for off := uint64(0); off < snap.Len; {
		n := min(stateChunkBytes, snap.Len-off)
		chunk, err := cfg.Transport.Call(donor, &transport.Message{
			Kind: transport.KindStateChunk, From: id, Snap: nonce, Off: off, Len: n,
		})
		if err == nil {
			err = chunk.Error()
		}
		if err == nil && uint64(len(chunk.Payload)) != n {
			err = fmt.Errorf("chain: chunk at %d returned %d of %d bytes", off, len(chunk.Payload), n)
		}
		if err != nil {
			release()
			return abort(fmt.Errorf("chain: state transfer from %s: %w", donor, err))
		}
		if err := reg.Write(int(off), chunk.Payload); err != nil {
			release()
			return abort(err)
		}
		if err := reg.Persist(int(off), int(n)); err != nil {
			release()
			return abort(err)
		}
		off += n
	}

	// 3. Reopen the engine over the transferred image and seed the
	// replica's durable cursors: everything <= snapSeq is inside the
	// image and globally complete, so re-forwarded records at or below it
	// must be dropped as duplicates, and the executed counter starts
	// there. The donor's pending suffix replays into the local ring; the
	// donor will re-forward it too, and whoever arrives second is
	// deduplicated.
	if err := r.pool.Reload(); err != nil {
		release()
		return abort(fmt.Errorf("chain: reopening pool over transferred image: %w", err))
	}
	if cfg.Setup != nil {
		if err := cfg.Setup(r.pool); err != nil {
			release()
			return abort(err)
		}
	}
	if err := r.getRing().SeedSeq(snapSeq); err != nil {
		release()
		return abort(err)
	}
	if err := r.getRing().AppendBatch(snap.Batch); err != nil {
		release()
		return abort(err)
	}
	r.mu.Lock()
	r.view = cfg.Manager.View()
	r.lastExec = snapSeq
	r.mu.Unlock()

	// 4. Go on the air before the view includes us (so the donor's first
	// post-join forwards are not dropped), join, then start executing.
	// The executor must not run before AddTail: a replica outside the
	// view has no successor and would acknowledge records as if it were
	// the tail while the real tail has yet to execute them.
	if err := cfg.Transport.Register(id, r.handle); err != nil {
		release()
		return abort(err)
	}
	r.watchCancel = cfg.Manager.Watch(r.onViewChange)
	if _, err := cfg.Manager.AddTail(id); err != nil {
		r.watchCancel()
		cfg.Transport.Unregister(id)
		release()
		return abort(fmt.Errorf("chain: joining view: %w", err))
	}
	r.startExecutor()
	r.kick()

	// 5. Release the donor; it resumes as a middle and re-forwards its
	// remaining input to us.
	release()
	return r, nil
}
