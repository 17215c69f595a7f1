package chain

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"kaminotx/internal/trace"
)

const (
	// chaosWorkers partitioned clients each own chaosSpan keys, so clients
	// never contend on admission locks and a stalled key isolates a bug
	// rather than hiding behind another client's progress.
	chaosWorkers = 6
	chaosSpan    = 64
	// chaosValueSize is the paper's 1 KiB record.
	chaosValueSize = 1024
	// chaosWedgeTimeout bounds the wait for the clients to stop after the
	// schedule: a client wedged in head admission (a leaked admission
	// lock) would otherwise hang the run with no diagnosis.
	chaosWedgeTimeout = 30 * time.Second
	// chaosDrainTimeout bounds how long the rings may still hold records
	// after the clients stop (they empty within a few milliseconds).
	chaosDrainTimeout = time.Second
)

// chaosValue encodes write counter ctr for key: verification decodes the
// counter from the read-back value and compares it against the client's
// acknowledged and attempted counters.
func chaosValue(key, ctr uint64) []byte {
	buf := make([]byte, chaosValueSize)
	binary.LittleEndian.PutUint64(buf, ctr)
	binary.LittleEndian.PutUint64(buf[8:], key)
	return buf
}

// chaosWorker is one partitioned client: it owns keys [base, base+span)
// and remembers, per key, the highest counter it attempted and the highest
// the chain acknowledged.
type chaosWorker struct {
	base       uint64
	attempt    map[uint64]uint64
	acked      map[uint64]uint64
	ops, fails uint64
}

func (w *chaosWorker) run(cl *Cluster, stop <-chan struct{}) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		key := w.base + uint64(i)%chaosSpan
		w.ops++
		if i%4 == 3 {
			// Mix in tail reads: they exercise the read path's redirects
			// and the frozen donor's read availability.
			if _, _, err := cl.Get(key); err != nil {
				w.fails++
			}
			continue
		}
		ctr := w.attempt[key] + 1
		w.attempt[key] = ctr
		if err := cl.Put(key, chaosValue(key, ctr)); err != nil {
			w.fails++
			continue
		}
		w.acked[key] = ctr
	}
}

// sampleIntrospection calls the cluster's introspection accessors every few
// milliseconds until stop closes, then closes the returned channel. It
// asserts nothing: run under the race detector through every kill, rejoin
// and reboot, it shows the accessors are safe against repair. Cluster.Obs
// reads each pool's engine while a promotion or a reboot replaces it; the
// pool publishes it atomically.
func sampleIntrospection(cl *Cluster, stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			cl.DebugInfos()
			cl.QueueStats()
			for _, reg := range cl.Obs() {
				reg.Snapshot()
			}
		}
	}()
	return done
}

// awaitRingsDrained fails the test unless every live replica's ring holds
// no records within chaosDrainTimeout of the load stopping: once nothing
// new arrives, acknowledged-prefix truncation must reach every record.
func awaitRingsDrained(t *testing.T, cl *Cluster) {
	t.Helper()
	deadline := time.Now().Add(chaosDrainTimeout)
	for {
		var held []string
		for _, qs := range cl.QueueStats() {
			if n := qs.InputBytes + qs.InflightBytes; n > 0 {
				held = append(held, fmt.Sprintf("%s holds %d B", qs.ID, n))
			}
		}
		if len(held) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rings not drained %v after the load stopped (truncation stopped?): %s; chain state:\n%s",
				chaosDrainTimeout, strings.Join(held, ", "), cl.DebugState())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosSchedule drives a scripted crash schedule against a live
// Kamino-Tx-Chain of 3 and of 5 strict, batched replicas: kill the middle
// replica and rebuild it by state transfer, reboot the head through the
// quick-reboot protocol (§5.3), kill the tail, and kill the head (forcing
// a failover and client redirects) — all while partitioned clients keep
// writing. Every client tracks the last write the chain acknowledged per
// key; after the schedule every key is read back, and the test fails if
// an acknowledged write was lost or a value nobody attempted appears, if
// a replica reported an error, if the clients wedge, if a ring still holds
// records a second after the load stops, or if the online auditor saw a
// persist-order violation anywhere in the chain.
func TestChaosSchedule(t *testing.T) {
	for _, replicas := range []int{3, 5} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) { chaosSchedule(t, replicas) })
	}
}

func chaosSchedule(t *testing.T, replicas int) {
	rec := trace.NewRecorder(0)
	auditor := trace.AttachOnline(rec, trace.OnlineOptions{})
	// Strict mode is on (the head reboot needs crash simulation) and hop
	// batching is enabled so kills land mid-batch. Persists cost what the
	// figures charge them (300 ns a line, 500 ns a fence) and hops 3 µs.
	const keys = chaosWorkers * chaosSpan
	cl, err := New(Options{
		Mode:         ModeKamino,
		Replicas:     replicas,
		HeapSize:     keys*(chaosValueSize+256)*4 + (16 << 20),
		Alpha:        0.5,
		HopLatency:   3 * time.Microsecond,
		FlushLatency: 300 * time.Nanosecond,
		FenceLatency: 500 * time.Nanosecond,
		Strict:       true,
		BatchOps:     8,
		Trace:        rec,
		RetryWindow:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stopSampling := make(chan struct{})
	sampled := sampleIntrospection(cl, stopSampling)
	defer func() {
		close(stopSampling)
		<-sampled
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	workers := make([]*chaosWorker, chaosWorkers)
	for i := range workers {
		w := &chaosWorker{
			base:    uint64(i) * chaosSpan,
			attempt: make(map[uint64]uint64),
			acked:   make(map[uint64]uint64),
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(cl, stop)
		}()
	}
	// stopWorkers ends the load and waits for the clients; on a wedge it
	// dumps every replica's repair state — the leaked lock's owner is
	// visible in the lock tables.
	stopWorkers := func() {
		close(stop)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(chaosWedgeTimeout):
			t.Fatalf("clients wedged after schedule (leaked admission lock?); chain state:\n%s", cl.DebugState())
		}
	}
	// Each kill is followed by a rebuild-and-rejoin covering failure
	// detection (immediate here), repair, state transfer, and joining the
	// view.
	killRejoin := func(position int) {
		t.Helper()
		t0 := time.Now()
		if err := cl.KillReplica(position); err != nil {
			stopWorkers()
			t.Fatalf("kill position %d: %v", position, err)
		}
		if _, err := cl.AddReplica(); err != nil {
			stopWorkers()
			t.Fatalf("rejoin after killing position %d: %v", position, err)
		}
		t.Logf("position %d killed and rebuilt in %v", position, time.Since(t0).Round(time.Millisecond))
	}
	settle := func() { time.Sleep(50 * time.Millisecond) }

	settle()
	killRejoin(1) // middle
	settle()
	if err := cl.RebootReplica(0); err != nil { // head power-cycle (§5.3)
		stopWorkers()
		t.Fatalf("head reboot: %v", err)
	}
	settle()
	killRejoin(len(cl.Members()) - 1) // tail
	settle()
	killRejoin(0) // head: failover + redirects
	// Let traffic run against the final membership to prove the rebuilt
	// chain is fully serving before the load stops.
	time.Sleep(100 * time.Millisecond)
	stopWorkers()
	awaitRingsDrained(t, cl)
	if err := cl.Err(); err != nil {
		t.Fatalf("replica error after schedule: %v", err)
	}

	// Every acknowledged write must still be readable at a counter at
	// least as high as the last ack and no higher than the last attempt (a
	// failed attempt may have committed; anything beyond it would be
	// fabricated).
	var ops, fails uint64
	checked, lost := 0, 0
	for _, w := range workers {
		ops += w.ops
		fails += w.fails
		for key, ack := range w.acked {
			val, ok, err := cl.Get(key)
			if err != nil {
				t.Fatalf("verify read key %d: %v", key, err)
			}
			checked++
			if !ok || len(val) < 16 {
				lost++
				t.Errorf("key %d: acknowledged at counter %d, now missing", key, ack)
				continue
			}
			ctr, owner := binary.LittleEndian.Uint64(val), binary.LittleEndian.Uint64(val[8:])
			if ctr < ack || ctr > w.attempt[key] || owner != key {
				lost++
				t.Errorf("key %d: reads counter %d of key %d; acknowledged %d, attempted %d",
					key, ctr, owner, ack, w.attempt[key])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no write was acknowledged during the schedule")
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged keys lost or corrupted", lost, checked)
	}
	for _, v := range auditor.Close() {
		t.Errorf("online audit: %s", v)
	}
	t.Logf("%d ops, %d failed (%.2f%% available), %d keys verified, %d events audited",
		ops, fails, 100*(1-float64(fails)/float64(ops)), checked, auditor.Stats().Events)
}
