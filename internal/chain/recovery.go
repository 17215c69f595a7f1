package chain

import (
	"errors"
	"fmt"
	"time"

	"kaminotx/internal/heap"
	"kaminotx/internal/membership"
	"kaminotx/internal/nvm"
	"kaminotx/internal/pqueue"
	"kaminotx/internal/transport"
	"kaminotx/kamino"
)

// onViewChange reacts to membership changes (fail-stop repairs, §5.2).
func (r *Replica) onViewChange(v membership.View) {
	r.mu.Lock()
	old := r.view
	if v.ID <= old.ID {
		r.mu.Unlock()
		return
	}
	r.view = v
	stillMember := v.Index(r.id) >= 0
	r.mu.Unlock()
	if !stillMember {
		// Removed from the chain: quiesce. Without this the pipeline
		// keeps applying and forwarding with a stale view and the node
		// keeps serving fetches as if it were a member — a zombie. Stop
		// the pipeline, leave the transport, drop the membership watch
		// (a replacement with the same NodeID must not drive this
		// corpse), and redirect any clients still waiting on a write.
		if old.Index(r.id) >= 0 {
			if r.watchCancel != nil {
				r.watchCancel()
			}
			r.stopExecutor()
			r.cfg.Transport.Unregister(r.id)
			r.failWaiters(r.redirect(v))
		}
		return
	}

	wasHead := old.Head() == r.id
	isHead := v.Head() == r.id
	wasTail := old.Tail() == r.id
	isTail := v.Tail() == r.id

	if isHead && !wasHead {
		// Promote at a transaction boundary. pool.Promote closes the
		// in-place engine and reopens it as Kamino-Tx over the same heap;
		// doing that under a live drain strands whatever intent the
		// drain is mid-way through, and the reopened engine would roll
		// it back against a just-created (empty) backup. The pipeline also
		// must not assign sequence numbers until promoteToHead has rebuilt
		// numbering from the persistent cursors.
		r.stopExecutor()
		r.pool.Drain()
		err := r.promoteToHead()
		r.startExecutor()
		if err != nil {
			r.fatal(fmt.Errorf("chain: head promotion: %w", err))
			return
		}
	}
	if isTail && !wasTail {
		// New tail (§5.2): acknowledge every in-flight transaction to
		// the head — they were forwarded but the old tail's
		// completion may have been lost.
		r.ackAllInflight(v)
	}
	// Resend in-flight transactions downstream on every view change:
	// deliveries in flight during the repair may have been dropped, and
	// receivers deduplicate by sequence number, so resending is always
	// safe. (A newly promoted head already re-drives its in-flight set.)
	if newSucc, hasSucc := v.Successor(r.id); hasSucc && !(isHead && !wasHead) {
		r.resendInflight(v, newSucc)
	}
	r.drain()
}

// promoteToHead converts an in-place replica into the chain's new head: it
// builds a local backup, recovers the admission-lock set from the ring's
// in-flight range, and resumes sequence numbering (§5.2).
func (r *Replica) promoteToHead() error {
	r.mu.Lock()
	promoted := r.promoted
	r.mu.Unlock()
	if !promoted && r.cfg.Mode == ModeKamino {
		if err := r.pool.Promote(r.cfg.Alpha); err != nil {
			return err
		}
	}
	r.mu.Lock()
	r.promoted = true
	lastExec := r.lastExec
	r.mu.Unlock()

	// Rebuild the lock set conservatively from in-flight transactions,
	// resume numbering after them, and re-drive them down the chain
	// (replicas deduplicate, so this is safe even if they already saw
	// them). A promoted middle has no clients for them; a rebooted head
	// keeps the ones still waiting.
	recs, err := r.getRing().Inflight()
	if err != nil {
		return err
	}
	// Sequence numbering must resume after every number this replica has
	// ever seen, not just what is still in flight. After a reboot wiped
	// lastExec and the in-flight range is empty (all acked), deriving
	// nextSeq from in-flight records alone would restart numbering at 1
	// and every new operation would be silently dropped by the replicas'
	// duplicate-seq filters. The ring's LastSeq is persistent (pqueue
	// header hOffSeq), monotone, and no lower than any record it holds.
	maxSeq := max(lastExec, r.getRing().LastSeq())
	r.headMu.Lock()
	for _, rec := range recs {
		op, ok := r.inflight[rec.Seq]
		if !ok { // a promoted middle's record, whole
			op.size = pqueue.Size(rec)
			r.held += op.size
		}
		op.lock = r.lockKey(rec.Args)
		r.lockedBy[op.lock] = struct{}{}
		r.inflight[rec.Seq] = op
	}
	if r.nextSeq < maxSeq {
		r.nextSeq = maxSeq
	}
	r.headMu.Unlock()

	// An acknowledgment can race with the rebuild above: delivered between
	// the in-flight snapshot and the lock re-admission, its AckThrough
	// truncated the ring but its completeThrough found no locks to
	// release yet. Reconcile against the ring now that the locks exist —
	// anything no longer in flight is complete. An ack landing after this
	// point sees the populated lock table and releases normally.
	left, _, err := r.getRing().Spans()
	if err != nil {
		return err
	}
	if left.Records == 0 {
		r.completeThrough(maxSeq)
	} else if left.First > 0 {
		r.completeThrough(left.First - 1)
	}

	view := r.currentView()
	if succ, ok := view.Successor(r.id); ok {
		r.resend(view, succ, recs)
	} else {
		// Single-node chain: everything in flight is trivially
		// complete.
		if err := r.ackThrough(maxSeq); err != nil {
			return err
		}
		r.completeThrough(maxSeq)
	}
	// A replica promoted mid-stream inherits its middle-era pending backlog:
	// startExecutor drains it before the batcher starts.
	return nil
}

// ackAllInflight lets a newly promoted tail acknowledge all forwarded
// transactions to the head. The acknowledgment is a Call, not a
// fire-and-forget Send: only once the head has actually processed it may
// the records leave the in-flight range. A lost ack used to truncate it
// anyway, permanently leaking the head's admission locks for those
// sequence numbers; now the records are retained and the repair ticker
// (reacker) retries until a head confirms.
func (r *Replica) ackAllInflight(v membership.View) {
	span, _, err := r.getRing().Spans()
	if err != nil {
		r.fatal(err)
		return
	}
	if span.Records == 0 {
		return
	}
	if err := r.ackTail(v, span.Last, span.Records, true); err != nil {
		// Head unreachable (mid-repair): keep the records; retry later.
		return
	}
	if err := r.ackThrough(span.Last); err != nil {
		r.fatal(err)
	}
}

// reackIfExecuted regenerates the tail acknowledgment for a duplicate
// delivery: upstream resends only what it has not seen complete, so if
// this tail has already executed seq the original ack (or the cleanup it
// triggers) was lost — answer it again rather than dropping the duplicate
// silently and stranding the head's admission locks.
func (r *Replica) reackIfExecuted(seq uint64) {
	view := r.currentView()
	if view.Head() == r.id {
		return
	}
	if r.lastExecSeq() < seq {
		return
	}
	if view.Tail() != r.id {
		// A middle receiving a duplicate it has already executed is being
		// probed by an upstream repair resend; silently dropping it would
		// strand the sender. Two cases. If this replica's ring has acked
		// past seq, the cleanup chain already certified that the
		// tail acknowledged it — answer with a cleanup to the predecessor,
		// deliberately including the head: the steady-state chain stops
		// cleanups short of the head (it hears the tail ack directly), but
		// a promoted head whose tail ack died with its predecessor has
		// only this path left to release its re-admitted admission locks.
		// Otherwise the record is still in the ring — in flight, or sent
		// and about to be marked so — pass the probe downstream so the
		// tail can regenerate the acknowledgment.
		if r.getRing().Acked() >= seq {
			r.cleanUp(view, seq)
			return
		}
		succ, ok := view.Successor(r.id)
		if !ok {
			return
		}
		if rec, ok, err := r.getRing().Find(seq); ok && err == nil {
			r.resend(view, succ, []pqueue.Record{rec})
		}
		return
	}
	_ = r.ackTail(view, seq, 1, false)
}

// reacker is the per-incarnation repair ticker. A tail holding retained
// in-flight records (an ack the head never confirmed) re-acknowledges them
// every resendInterval until one lands. A head or middle whose oldest
// in-flight record has made no progress between two ticks re-drives that
// range down the chain: one-shot acks and cleanups can be lost — addressed
// to a head that died before delivery, or dropped at a full inbox (the
// transport never waits to deliver one) — and without a retry the head's
// admission locks for those records would be stranded forever, and a
// middle would hold them in its ring. The successor answers a duplicate it
// has seen acknowledged with a clean-up, and passes the rest on to the
// tail, which acknowledges again (reackIfExecuted).
func (r *Replica) reacker(stop chan struct{}) {
	defer r.wg.Done()
	t := time.NewTicker(resendInterval)
	defer t.Stop()
	var stalledFloor uint64
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		view := r.currentView()
		if succ, ok := view.Successor(r.id); ok {
			span, _, err := r.getRing().Spans()
			if err != nil || span.Records == 0 {
				stalledFloor = 0
				continue
			}
			if span.First == stalledFloor {
				// Re-drive only the oldest prefix: a stranded record
				// blocks the floor, and its regenerated ack releases the
				// whole prefix at once, so convergence does not need the
				// full queue. (A legitimately stalled chain — a donor
				// frozen for state transfer — can back up thousands of
				// records; resending them all every tick turns the
				// repair ticker into a storm that starves the transfer.)
				if recs, err := r.getRing().Oldest(16); err == nil {
					r.resend(view, succ, recs)
				}
			}
			stalledFloor = span.First
			continue
		}
		if view.Tail() != r.id {
			continue
		}
		if fl, _ := r.getRing().Usage(); fl > 0 {
			r.ackAllInflight(view)
		}
	}
}

// resendInflight re-forwards in-flight transactions to a new successor.
func (r *Replica) resendInflight(v membership.View, succ transport.NodeID) {
	recs, err := r.getRing().Inflight()
	if err != nil {
		r.fatal(err)
		return
	}
	r.resend(v, succ, recs)
}

// resend re-forwards records in batches, as the pipeline sends them; the
// receiver drops the prefix it already holds, so resending is always safe.
// Every resend of a head's ring passes here, where its references become
// the puts they name (expand).
func (r *Replica) resend(v membership.View, succ transport.NodeID, recs []pqueue.Record) {
	recs, err := r.expand(recs)
	if err != nil {
		r.fatal(err)
		return
	}
	r.send(v, succ, recs)
	r.cResends.Add(uint64(len(recs)))
}

// ---------------------------------------------------------------------------
// Quick reboots (§5.3)

// powerCycle runs crash, which must crash the pool and the ring region,
// then re-attaches the ring from what survived and publishes it — all with
// the power held exclusively, so no message handler or sampler touches a
// region while Crash rewinds it, or the stale ring after it.
func (r *Replica) powerCycle(crash func() error) (*pqueue.Queue, error) {
	r.power.Lock()
	defer r.power.Unlock()
	if err := crash(); err != nil {
		return nil, err
	}
	ring, err := pqueue.Attach(r.ringReg)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.ring = ring
	r.mu.Unlock()
	return ring, nil
}

// Reboot simulates a power failure and recovery of this replica: regions
// crash, the pool reopens, the replica validates its view with the
// membership manager, and incomplete transactions are resolved — from the
// local backup if it is (still) the head, by rolling forward from the
// predecessor if it is a non-head, or by rolling back from the successor if
// it finds itself newly promoted (Figure 9). The pipeline then drains the
// ring's pending range; re-execution is safe because replicated operations are
// idempotent.
func (r *Replica) Reboot() error {
	return r.reboot(func() error {
		if err := r.pool.Crash(); err != nil {
			return err
		}
		return r.ringReg.Crash()
	})
}

// RebootPartial is Reboot with the weaker nvm loss model: each
// flushed-but-unfenced cache line independently survives or is lost,
// decided deterministically from seed (see Pool.CrashPartial). It
// exercises recovery from the torn states a fence would have excluded —
// e.g. a ring append whose records persisted but whose header did not.
func (r *Replica) RebootPartial(seed int64) error {
	return r.reboot(func() error {
		if err := r.pool.CrashPartial(seed); err != nil {
			return err
		}
		return r.ringReg.CrashPartial(nvm.KeepBySeed(seed))
	})
}

// reboot runs the quick-reboot protocol around the given power-failure
// model, which must crash the pool and the ring region.
func (r *Replica) reboot(crash func() error) error {
	if !r.cfg.Strict {
		return errors.New("chain: Reboot requires Strict replicas")
	}
	r.mu.Lock()
	believed := r.view.ID
	r.mu.Unlock()

	// The crashed process stops serving and executing. A snapshot frozen
	// for a joiner dies with the power: invalidate the nonce so stale
	// chunk fetches fail instead of reading a post-crash heap.
	r.snapMu.Lock()
	if r.snapTimer != nil {
		r.snapTimer.Stop()
		r.snapTimer = nil
	}
	r.snapNonce = 0
	r.snapMu.Unlock()
	r.stopExecutor()
	r.cfg.Transport.Unregister(r.id)

	// Power failure: heap/log regions and the ring lose volatile
	// state. Pool.Crash also reopens the engine, which for in-place
	// replicas surfaces pending transactions.
	ring, err := r.powerCycle(crash)
	if err != nil {
		return err
	}

	// Revalidate membership (§5.3: all messages carry a viewID; the
	// manager tells us the current one or that we were removed).
	view, err := r.cfg.Manager.Rejoin(r.id, believed)
	if err != nil {
		return fmt.Errorf("chain: rejoin: %w", err)
	}
	// The volatile executed counter did not survive, but the ring did:
	// everything that ever left its pending range was executed first, so
	// that range's floor (LastSeq when empty, else the oldest pending
	// record minus one) is a sound lower bound. Restoring 0 instead would make a rebooted
	// tail refuse to re-acknowledge duplicates it has long executed.
	floor, err := executedFloor(ring)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.view = view
	r.lastExec = floor
	r.mu.Unlock()

	// Resolve incomplete transactions.
	if ie := r.pool.InPlaceEngine(); ie != nil && len(ie.PendingRecovery()) > 0 {
		var neighbour transport.NodeID
		if view.Head() == r.id {
			// New head: roll back from the successor.
			succ, ok := view.Successor(r.id)
			if !ok {
				return errors.New("chain: new head has no successor to roll back from")
			}
			neighbour = succ
		} else {
			// Non-head: roll forward from the predecessor.
			pred, ok := view.Predecessor(r.id)
			if !ok {
				return errors.New("chain: no predecessor to roll forward from")
			}
			neighbour = pred
		}
		fetch := func(obj heap.ObjID, class int) ([]byte, error) {
			n := uint64(heap.BlockHeaderSize + class)
			b, err := r.call(neighbour, &transport.Message{
				Kind: transport.KindFetch, From: r.id, ViewID: view.ID,
				Off: uint64(obj) - heap.BlockHeaderSize, Len: n,
			})
			if err == nil && uint64(len(b)) != n {
				err = fmt.Errorf("chain: fetch of block %d returned %d of %d bytes", obj, len(b), n)
			}
			return b, err
		}
		if err := ie.ResolvePending(fetch); err != nil {
			return err
		}
	}

	// A replica that finds itself head after reboot promotes now that
	// pending state is resolved.
	if view.Head() == r.id {
		r.mu.Lock()
		// Promotion state does not survive the crash for an in-place
		// replica; recompute from the reopened pool's mode.
		r.promoted = r.pool.Mode() != kamino.ModeInPlace
		r.mu.Unlock()
		if err := r.promoteToHead(); err != nil {
			return err
		}
	}

	// Back online: serve messages and resume the pending range.
	if err := r.cfg.Transport.Serve(r.id, r.handle, r.drainStep); err != nil {
		return err
	}
	r.startExecutor()
	return nil
}
