package chain

import (
	"fmt"
	"testing"

	"kaminotx/internal/membership"
	"kaminotx/internal/trace"
	"kaminotx/internal/transport"
)

// TestTraceIDPropagatesHeadToTail: every operation's head-minted trace id
// must appear, intact, in the chain events of every replica — applied at
// all of them, forwarded by all but the tail, and acknowledged at both
// ends.
func TestTraceIDPropagatesHeadToTail(t *testing.T) {
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
	type perTrace struct {
		applied   map[string]bool // actor → saw chain_apply
		forwarded map[string]bool
		acked     map[string]bool
	}
	traces := map[uint64]*perTrace{}
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindChainApply, trace.KindChainForward, trace.KindChainAck:
		default:
			continue // device/tx events from the replicas' pools
		}
		if e.Trace == 0 {
			t.Fatalf("chain event with zero trace id: %+v", e)
		}
		pt := traces[e.Trace]
		if pt == nil {
			pt = &perTrace{applied: map[string]bool{}, forwarded: map[string]bool{}, acked: map[string]bool{}}
			traces[e.Trace] = pt
		}
		switch e.Kind {
		case trace.KindChainApply:
			pt.applied[e.Actor] = true
		case trace.KindChainForward:
			pt.forwarded[e.Actor] = true
		case trace.KindChainAck:
			pt.acked[e.Actor] = true
		}
	}
	if len(traces) != ops {
		t.Fatalf("distinct trace ids = %d, want %d", len(traces), ops)
	}
	for id, pt := range traces {
		// The head minted this id; its high bits identify the minting node.
		if id&^0xFFFFFFFF != fnv64a(head)&^0xFFFFFFFF {
			t.Errorf("trace %#x not minted by head %s", id, head)
		}
		for _, nid := range ids {
			actor := "chain/" + string(nid)
			if !pt.applied[actor] {
				t.Errorf("trace %#x never applied at %s", id, actor)
			}
			if string(nid) != tail && !pt.forwarded[actor] {
				t.Errorf("trace %#x not forwarded by %s", id, actor)
			}
		}
		if !pt.acked["chain/"+tail] {
			t.Errorf("trace %#x not acknowledged at tail", id)
		}
		if !pt.acked["chain/"+head] {
			t.Errorf("trace %#x ack never returned to head", id)
		}
	}
}
