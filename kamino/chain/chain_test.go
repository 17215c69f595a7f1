package chain

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestClusterPutGetDelete(t *testing.T) {
	for _, mode := range []Mode{ModeKamino, ModeTraditional} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			c, err := New(Options{Mode: mode, Replicas: 3, HeapSize: 8 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Put(1, []byte("hello")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := c.Get(1)
			if err != nil || !ok || string(v) != "hello" {
				t.Fatalf("Get = %q %v %v", v, ok, err)
			}
			if err := c.Delete(1); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := c.Get(1); ok {
				t.Error("deleted key found")
			}
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(Options{Replicas: 1}); err == nil {
		t.Error("1-replica cluster accepted")
	}
}

func TestClusterSurvivesFailuresAndReboot(t *testing.T) {
	c, err := New(Options{Mode: ModeKamino, Replicas: 4, HeapSize: 8 << 20, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(0); i < 30; i++ {
		if err := c.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Reboot a middle replica.
	if err := c.RebootReplica(1); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	if err := c.Put(100, []byte("after-reboot")); err != nil {
		t.Fatal(err)
	}
	// Kill the tail (f=2 tolerated with 4 replicas).
	if err := c.KillReplica(3); err != nil {
		t.Fatalf("kill tail: %v", err)
	}
	if err := c.Put(101, []byte("after-tail-kill")); err != nil {
		t.Fatal(err)
	}
	// Kill the head; new head promotes.
	if err := c.KillReplica(0); err != nil {
		t.Fatalf("kill head: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Put(102, []byte("after-head-kill")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("chain never recovered from head failure")
		}
		time.Sleep(5 * time.Millisecond)
	}
	v, ok, err := c.Get(102)
	if err != nil || !ok || string(v) != "after-head-kill" {
		t.Fatalf("Get(102) = %q %v %v", v, ok, err)
	}
	// Old data intact through it all.
	v, ok, err = c.Get(15)
	if err != nil || !ok || v[0] != 15 {
		t.Fatalf("Get(15) = %v %v %v", v, ok, err)
	}
	if len(c.Members()) != 2 {
		t.Errorf("members = %v", c.Members())
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// DebugInfos must expose every replica with its role in view order, and
// the string DebugState must keep rendering from the same data.
func TestClusterDebugIntrospection(t *testing.T) {
	c, err := New(Options{Mode: ModeKamino, Replicas: 3, HeapSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	infos := c.DebugInfos()
	if len(infos) != 3 {
		t.Fatalf("DebugInfos len = %d", len(infos))
	}
	if infos[0].Role != "head" || infos[2].Role != "tail" || infos[1].Role != "middle" {
		t.Fatalf("roles = %v %v %v", infos[0].Role, infos[1].Role, infos[2].Role)
	}
	if infos[0].Info.LastExec == 0 {
		t.Fatal("head shows no executed ops after a Put")
	}
	// Structured state serializes cleanly.
	raw, err := json.Marshal(infos)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"last_exec"`) {
		t.Fatalf("JSON missing last_exec: %s", raw)
	}
	// The one-line rendering carries the same fields.
	s := c.DebugState()
	if !strings.Contains(s, "lastExec=") || !strings.Contains(s, "head") {
		t.Fatalf("DebugState = %q", s)
	}
	// Every replica exposes its ring's occupancy and capacity.
	for _, rd := range infos {
		if rd.Info.RingCap == 0 {
			t.Fatalf("%s: ring capacity missing: %+v", rd.ID, rd.Info)
		}
	}
}
