package chain

import (
	"fmt"
	"testing"

	"kaminotx/internal/membership"
	"kaminotx/internal/trace"
	"kaminotx/internal/transport"
)

// TestChainEventsFollowEachRecord: every write's sequence number must
// appear in the chain events of every replica — applied at all of them,
// forwarded by all but the tail, and acknowledged at both ends.
func TestChainEventsFollowEachRecord(t *testing.T) {
	const n = 4
	const ops = 20
	rec := trace.NewRecorder(0)
	tr := transport.NewInProc(0)
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(fmt.Sprintf("n%d", i))
	}
	mgr, err := membership.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	replicas := make(map[transport.NodeID]*Replica, n)
	for _, id := range ids {
		rep, err := NewReplica(id, Config{
			Mode:      ModeKamino,
			HeapSize:  8 << 20,
			Alpha:     0.5,
			Transport: tr,
			Manager:   mgr,
			Trace:     rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		replicas[id] = rep
	}
	defer func() {
		for _, rep := range replicas {
			rep.Close()
		}
		tr.Close()
	}()
	client := headClient(func() *Replica {
		return replicas[mgr.View().Head()]
	})

	for i := uint64(0); i < ops; i++ {
		if err := client.Put(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}

	head := string(mgr.View().Head())
	tail := string(mgr.View().Tail())
	type perSeq struct {
		applied   map[string]bool // actor → saw chain_apply
		forwarded map[string]bool
		acked     map[string]bool
	}
	seqs := map[uint64]*perSeq{}
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindChainApply, trace.KindChainForward, trace.KindChainAck:
		default:
			continue // device/tx events from the replicas' pools
		}
		if e.Obj == 0 {
			t.Fatalf("chain event with no sequence number: %+v", e)
		}
		ps := seqs[e.Obj]
		if ps == nil {
			ps = &perSeq{applied: map[string]bool{}, forwarded: map[string]bool{}, acked: map[string]bool{}}
			seqs[e.Obj] = ps
		}
		switch e.Kind {
		case trace.KindChainApply:
			ps.applied[e.Actor] = true
		case trace.KindChainForward:
			ps.forwarded[e.Actor] = true
		case trace.KindChainAck:
			ps.acked[e.Actor] = true
		}
	}
	if len(seqs) != ops {
		t.Fatalf("distinct sequence numbers = %d, want %d", len(seqs), ops)
	}
	for seq := uint64(1); seq <= ops; seq++ {
		ps := seqs[seq]
		if ps == nil {
			t.Errorf("seq %d has no chain events", seq)
			continue
		}
		for _, nid := range ids {
			actor := "chain/" + string(nid)
			if !ps.applied[actor] {
				t.Errorf("seq %d never applied at %s", seq, actor)
			}
			if string(nid) != tail && !ps.forwarded[actor] {
				t.Errorf("seq %d not forwarded by %s", seq, actor)
			}
		}
		if !ps.acked["chain/"+tail] {
			t.Errorf("seq %d not acknowledged at tail", seq)
		}
		if !ps.acked["chain/"+head] {
			t.Errorf("seq %d ack never returned to head", seq)
		}
	}
}
