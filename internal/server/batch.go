package server

import (
	"errors"
	"time"

	"kaminotx/internal/halving"
	"kaminotx/internal/kvstore"
	"kaminotx/internal/transport"
)

// batchBytes caps a batch's total value payload. No caller ever set
// another value, so it is a constant rather than an Options field.
const batchBytes = 256 << 10

// wreq is one admitted write on its way to the batcher.
type wreq struct {
	p      *pending
	key    uint64 // root-store (tenant-prefixed) key
	value  []byte
	delete bool
}

// batcher is the server's single writer: it pulls admitted writes from
// every connection in arrival order, coalesces runs of key-disjoint puts
// into one engine transaction each (one intent-log slot, one commit
// persist, one backup reconciliation for the whole run), and executes
// deletes and same-key repeats as the batch boundaries between runs, so
// per-key order is exactly arrival order. A batch that aborts — a leaf
// split the fast path refuses, or any engine error — is split in half
// and retried, converging on per-operation execution through the
// ordinary split-capable path (the chain hop batcher's shape, PR 3).
func (s *Server) batcher() {
	defer s.batchWG.Done()
	var carry *wreq // first write of the NEXT batch (forced a boundary)
	for {
		var first *wreq
		if carry != nil {
			first, carry = carry, nil
		} else {
			select {
			case first = <-s.writeCh:
			case <-s.stop:
				s.drainWrites()
				return
			}
		}
		batch := []*wreq{first}
		if !first.delete && s.opts.BatchOps > 1 {
			carry = s.gather(&batch)
		}
		s.applyReqs(batch)
	}
}

// gather extends batch with the key-disjoint puts already queued — what
// arrived while the previous transaction ran — until a cap is hit or a
// boundary op (delete, or a key already in the batch) turns up; the boundary
// op is returned to seed the next batch. It never waits: a timer short
// enough to be worth having rounds up to the runtime's 1 ms poll tick on an
// idle process, and under load the queue is already full.
func (s *Server) gather(batch *[]*wreq) *wreq {
	keys := map[uint64]bool{(*batch)[0].key: true}
	bytes := len((*batch)[0].value)
	for len(*batch) < s.opts.BatchOps && bytes < batchBytes {
		var w *wreq
		select {
		case w = <-s.writeCh:
		default:
			return nil
		}
		if w.delete || keys[w.key] {
			return w // boundary: preserves per-key arrival order
		}
		keys[w.key] = true
		bytes += len(w.value)
		*batch = append(*batch, w)
	}
	return nil
}

// applyReqs executes a run of writes, halving on abort by the rule the
// chain's hop batcher uses (halving.Run): a full-batch transaction
// that fails (leaf split needed, log slot overflow, any engine error)
// retries as two half batches, down to single operations through the normal
// split-capable path, where a residual failure is that one operation's own
// error.
func (s *Server) applyReqs(batch []*wreq) {
	_ = halving.Run(batch, s.applyTogether, s.cSplits.Inc)
}

// applyTogether executes batch as one transaction and acknowledges its
// members, or reports why it could not; a single write always gets its
// answer here.
func (s *Server) applyTogether(batch []*wreq) error {
	if len(batch) == 1 {
		s.applyOne(batch[0])
		return nil
	}
	ops := make([]kvstore.Op, len(batch))
	for i, w := range batch {
		ops[i] = kvstore.Op{Key: w.key, Value: w.value, Delete: w.delete}
	}
	s.markEngineStart(batch)
	s.writeMu.Lock()
	e0 := time.Now()
	txid, err := s.opts.Store.ApplyBatchT(ops)
	engineNs := time.Since(e0).Nanoseconds()
	s.writeMu.Unlock()
	if err != nil {
		return err
	}
	s.cBatches.Inc()
	s.cBatchOps.Add(uint64(len(batch)))
	s.markEngineDone(batch, engineNs, txid)
	for _, w := range batch {
		s.ackWrite(w, false)
	}
	return nil
}

// applyOne executes a single write through the ordinary engine path.
func (s *Server) applyOne(w *wreq) {
	one := []*wreq{w}
	s.markEngineStart(one)
	s.writeMu.Lock()
	e0 := time.Now()
	var found bool
	var err error
	var txid uint64
	if w.delete {
		found, txid, err = s.opts.Store.DeleteT(w.key)
	} else {
		txid, err = s.opts.Store.UpdateT(w.key, w.value)
	}
	engineNs := time.Since(e0).Nanoseconds()
	s.writeMu.Unlock()
	s.markEngineDone(one, engineNs, txid)
	if err != nil {
		s.fail(w.p, transport.KVErrInternal, err)
		return
	}
	s.ackWrite(w, found)
}

// markEngineStart closes each member's batch_wait phase (token in hand
// to engine-transaction start: write-queue time plus batch formation).
func (s *Server) markEngineStart(batch []*wreq) {
	for _, w := range batch {
		p := w.p
		s.phase(p, transport.KVPhaseBatchWait, time.Since(p.start).Nanoseconds()-p.ns[transport.KVPhaseAdmissionWait])
		p.batchLen = len(batch)
	}
}

// markEngineDone records the shared engine-transaction duration on every
// member (each waited on the whole transaction) and links each traced
// request to the engine transaction id that executed it.
func (s *Server) markEngineDone(batch []*wreq, engineNs int64, txid uint64) {
	for _, w := range batch {
		p := w.p
		s.phase(p, transport.KVPhaseEngineTxn, engineNs)
		if p.trace != 0 && txid != 0 {
			s.tracer.ReqLink(p.trace, txid)
		}
	}
}

// ackWrite acknowledges a durably committed write.
func (s *Server) ackWrite(w *wreq, found bool) {
	s.finish(w.p, func(r *transport.KVResponse) {
		r.Status = transport.KVOK
		r.Found = found
	})
}

// drainWrites answers writes still queued at Close with a shutdown error
// (a graceful Drain leaves this queue empty; this path is the abortive
// Close's cleanup so no response slot is left hanging).
func (s *Server) drainWrites() {
	for {
		select {
		case w := <-s.writeCh:
			s.fail(w.p, transport.KVErrShutdown, errors.New("server closed"))
		default:
			return
		}
	}
}
