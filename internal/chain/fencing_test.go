package chain

import (
	"testing"
	"time"

	"kaminotx/internal/pqueue"
	"kaminotx/internal/transport"
)

// A removed replica ("zombie") must be fenced: its protocol messages are
// rejected by current members (§5.3).
func TestZombieExMemberFenced(t *testing.T) {
	tc := newTestChain(t, ModeKamino, 4, false)
	for i := uint64(0); i < 10; i++ {
		if err := tc.client.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Remove the head from membership WITHOUT stopping its process: it
	// becomes a zombie that can still send messages.
	oldHeadID := tc.order[0]
	if _, err := tc.mgr.ReportFailure(oldHeadID); err != nil {
		t.Fatal(err)
	}
	// Wait until the new head has promoted.
	newHead := tc.replicas[tc.mgr.View().Head()]
	deadline := time.Now().Add(5 * time.Second)
	for !newHead.IsHead() {
		if time.Now().After(deadline) {
			t.Fatal("promotion not observed")
		}
		time.Sleep(time.Millisecond)
	}
	// Zombie injects a forged op with a high sequence number directly to
	// the new head's successor.
	succ, _ := tc.mgr.View().Successor(newHead.ID())
	forged := &transport.Message{
		Kind: transport.KindOpBatch, From: oldHeadID, ViewID: 1, Seq: 9999,
		Batch: []pqueue.Record{{Seq: 9999, Name: "put", Args: EncodeKV(777, []byte("zombie!"))}},
	}
	if err := tc.tr.Send(succ, forged); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	// The forged write must not be visible anywhere.
	for _, id := range tc.mgr.View().Members {
		if _, ok := localGet(t, tc.replicas[id], 777); ok {
			t.Errorf("zombie write applied at %s", id)
		}
	}
	// The chain still works through the legitimate head.
	if err := tc.client.Put(50, []byte("legit")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tc.client.Get(50)
	if err != nil || !ok || string(v) != "legit" {
		t.Fatalf("post-fence write: %q %v %v", v, ok, err)
	}
}
