package chain

import (
	"bytes"
	"testing"
	"time"

	"kaminotx/internal/race"
)

// Device-cost pin and benchmark for one chain put, beside
// internal/kvstore/devcost_test.go's for one local update: what an in-place
// overwrite costs the simulated NVM of each replica, region by region, in
// the units the gated benchmark reports for chain-put (chain.fences_per_put,
// nvm_write_amp = bytes written / value bytes).

// devCost is the device work of one region: fences, cache lines flushed and
// bytes written, as its nvm.<region>.* gauges count them.
type devCost struct{ fences, lines, bytes uint64 }

func (c devCost) sub(o devCost) devCost {
	return devCost{c.fences - o.fences, c.lines - o.lines, c.bytes - o.bytes}
}

func (c devCost) add(o devCost) devCost {
	return devCost{c.fences + o.fences, c.lines + o.lines, c.bytes + o.bytes}
}

// replicaCost is one replica's device work by region: the pool's main heap,
// backup and intent log, and the chain's ring.
type replicaCost map[string]devCost

func readReplicaCost(r *Replica) replicaCost {
	out := replicaCost{}
	pool, ring := r.Pool().Obs().Snapshot().Gauges, r.Obs().Snapshot().Gauges
	for region, g := range map[string]map[string]uint64{"main": pool, "backup": pool, "log": pool, "ring": ring} {
		p := "nvm." + region
		out[region] = devCost{g[p+".fences"], g[p+".lines_flushed"], g[p+".bytes_written"]}
	}
	return out
}

// chainCost sums every region of every replica.
func chainCost(reps []*Replica) (sum devCost) {
	for _, r := range reps {
		for _, c := range readReplicaCost(r) {
			sum = sum.add(c)
		}
	}
	return sum
}

const (
	devValue = 1024 // the benchmark's value size
	devKeys  = 64
)

// devChain is a three-replica chain with a Kamino-Tx-Simple head and
// devKeys preloaded keys, settled.
func devChain(tb testing.TB, strict bool, hop time.Duration) (*testChain, []*Replica) {
	tb.Helper()
	tc, _ := newHookedChain(tb, 1, strict, hop, 1)
	reps := []*Replica{tc.get("n0"), tc.get("n1"), tc.get("n2")}
	for k := uint64(0); k < devKeys; k++ {
		if err := tc.client.Put(k, bytes.Repeat([]byte{1}, devValue)); err != nil {
			tb.Fatal(err)
		}
	}
	settle(tb, reps)
	return tc, reps
}

// ringEmpty reports whether a replica's ring holds no record in either range.
func ringEmpty(r *Replica) bool {
	inflight, pending := r.getRing().Usage()
	return inflight+pending == 0
}

// settle waits until every ring is empty and every pool's appliers are idle.
func settle(tb testing.TB, reps []*Replica) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range reps {
		for !ringEmpty(r) {
			if time.Now().After(deadline) {
				tb.Fatalf("replica %s ring never emptied", r.ID())
			}
			time.Sleep(100 * time.Microsecond)
		}
		r.Pool().Drain()
	}
}

// TestChainPutDeviceCost pins one overwrite of a preloaded 1 KiB key through
// a three-replica Kamino chain, one client: 21 fences, 105 lines flushed
// and 5484 bytes written, of which the rings take 8 fences and 1192 bytes.
//
// Every replica runs the same local transaction — 1 fence, 17 lines, 1028 B
// on the main heap (the entry's length word and value: the bucket is locked,
// not logged) and 3 fences, 60 B on the intent log (header+entry, commit
// marker, release) — and only the head pays for a copy: 1 fence, 1028 B on
// its backup. The ring then costs each role:
//
//	head    append, done with tail (2 fences, 40+24 B) + tail ack (1, 16 B)
//	middle  append (2, 1064+16 B) + done cursor (1, 8 B) + clean-up (1, 16 B)
//	tail    duplicate floor, after the commit (1, 8 B)
//
// where 1064 B is the record (24 B header, "put", 8 B key, 1 KiB value,
// padded to 8) and spans 17 or 18 lines as its offset walks the ring, 17.5
// on average over any eight consecutive records. The head's ring keeps a
// reference instead (24 B header, "put*", the key: 40 B, 1.5 lines on
// average): its store already holds the value a resend needs. A live tail
// with nothing pending executes what it receives without appending it: the
// middle holds the record in flight until the tail's clean-up, and resends
// it if the tail loses it. So the value is durable five times: head main
// and backup, middle ring and main, tail main.
//
// The number to beat. Before the one-ring protocol (two queues per replica,
// bucket intent logged on every put) the same run read 31 fences, 167
// lines, 8808 B: ring fences 5 / 7 / 3 (head / middle / tail) against
// 3 / 4 / 1 now — the middle's second durable copy of the record (2 fences,
// 1088 B), the input queue's own retire, a second persist in every
// acknowledgment, and the head's re-persist of an unmoved cursor when the
// clean-up follows the tail ack — and 4 log fences per replica against 3.
// Before the head's ring kept references: 23 fences, 139.5 lines, 7596 B;
// before the tail executed without appending: 23, 123.5, 6572.
func TestChainPutDeviceCost(t *testing.T) {
	tc, reps := devChain(t, true, 0)

	const puts = 32 // a multiple of 8: whole cycles of the record's alignment
	var before [3]replicaCost
	for i, r := range reps {
		before[i] = readReplicaCost(r)
	}
	for i := uint64(0); i < puts; i++ {
		if err := tc.client.Put((i*7)%devKeys, bytes.Repeat([]byte{2}, devValue)); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, reps)

	tx := devCost{1, 17, 4 + devValue} // length word + value, on main and on the head's backup
	log := devCost{3, 4, 20 + 32 + 4 + 4}
	const rec, ref = 1064, 40
	want := [3]replicaCost{
		{"main": tx, "backup": tx, "log": log, "ring": {3, 0, ref + 24 + 16}},
		{"main": tx, "backup": {}, "log": log, "ring": {4, 0, rec + 16 + 8 + 16}},
		{"main": tx, "backup": {}, "log": log, "ring": {1, 0, 8}},
	}
	// Ring lines per eight puts: the records' (140 for whole ones, 12 for
	// references, none at the tail), and the header line once per fence
	// that persists no record.
	ringLines := [3]uint64{12 + 2*8, 140 + 3*8, 1 * 8}
	var total devCost
	for i, r := range reps {
		now := readReplicaCost(r)
		for region, per := range want[i] {
			w := devCost{per.fences * puts, per.lines * puts, per.bytes * puts}
			if region == "ring" {
				w.lines = puts * ringLines[i] / 8
			}
			got := now[region].sub(before[i][region])
			if got != w {
				t.Errorf("%s %s: %d puts cost %+v, want %+v", r.ID(), region, puts, got, w)
			}
			total = total.add(got)
		}
	}
	if want := (devCost{21 * puts, 105 * puts, 5484 * puts}); total != want {
		t.Errorf("chain: %d puts cost %+v, want %+v", puts, total, want)
	}
	waitErrFree(t, tc)
}

// BenchmarkChainPut is the same put on fast regions behind 3 µs hops — the
// gated benchmark's chain-put with one client and no device latency.
func BenchmarkChainPut(b *testing.B) {
	tc, reps := devChain(b, false, 3*time.Microsecond)
	val := bytes.Repeat([]byte{4}, devValue)
	before := chainCost(reps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tc.client.Put(uint64(i*7)%devKeys, val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	settle(b, reps)
	d, n := chainCost(reps).sub(before), float64(b.N)
	b.ReportMetric(float64(d.fences)/n, "fences/op")
	b.ReportMetric(float64(d.lines)/n, "lines/op")
	b.ReportMetric(float64(d.bytes)/n, "B-written/op")
}

// chainPutAllocs is the pinned Go-heap allocations of one chain put, the
// client's and every replica's goroutines counted (35 before each ring kept
// its encoding buffer, the head its batch slice, and the head's sorts left
// sort.Slice; 28 before a write's admission lock was one key, not a slice;
// 27 before a live tail executed the records it received instead of
// decoding them back out of its ring). What is left is per transaction —
// the client's request, its arguments and done channel, each replica's
// transaction handles, the head's completion list — or held by a
// receiver: each hop's op message and its records, the middle's decoded
// batch, the tail's acknowledgment and the clean-ups.
const chainPutAllocs = 24

// TestChainPutAllocs pins BenchmarkChainPut's allocs/op. It skips itself
// under -race, which counts the detector's own allocations.
func TestChainPutAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("testing.AllocsPerRun is meaningless under the race detector")
	}
	tc, reps := devChain(t, false, 3*time.Microsecond)
	val := bytes.Repeat([]byte{4}, devValue)
	i := 0
	n := testing.AllocsPerRun(1000, func() {
		if err := tc.client.Put(uint64(i*7)%devKeys, val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	settle(t, reps)
	t.Logf("%.0f allocations per chain put", n)
	if n > chainPutAllocs {
		t.Errorf("a chain put allocates %.0f times, want <= %d", n, chainPutAllocs)
	}
}
