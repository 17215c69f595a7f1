package bench

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kaminotx/internal/obs"
	"kaminotx/internal/workload"
	"kaminotx/kamino"
	chainpkg "kaminotx/kamino/chain"
)

// tiny returns the smallest configuration that exercises the harness.
func tiny(out *bytes.Buffer) Config {
	return Config{
		Keys:         500,
		ValueSize:    128,
		OpsPerThread: 200,
		Threads:      2,
		FlushLatency: time.Nanosecond,
		FenceLatency: time.Nanosecond,
		Out:          out,
	}
}

func TestMeasureYCSBAllModes(t *testing.T) {
	var out bytes.Buffer
	cfg := tiny(&out).WithDefaults()
	for _, mode := range []kamino.Mode{kamino.ModeSimple, kamino.ModeDynamic, kamino.ModeUndo, kamino.ModeNoLog} {
		r, err := cfg.measureYCSB(mode, 0.5, 'A', 1)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if r.OpsPerSec <= 0 || r.Mean <= 0 {
			t.Errorf("%s: degenerate result %+v", mode, r)
		}
	}
}

// TestWarmupIsNotTimed drives a warmup and a measured phase as
// measureYCSB does, with one client stream across both: the warmup's
// operations sleep 5 ms each and the measured ones return at once. The
// measured cell counts neither the warmup's operations nor its time, so its
// throughput must exceed the measured operations over the warmup's sleep —
// the most a clock started before the warmup could ever report.
func TestWarmupIsNotTimed(t *testing.T) {
	const threads, warmup, ops = 2, 10, 1000
	const nap = 5 * time.Millisecond
	done := make([]int, threads) // operations each client has run, across calls
	clients := func(th int) func(int) error {
		return func(int) error {
			if done[th] < warmup {
				time.Sleep(nap)
			}
			done[th]++
			return nil
		}
	}
	if _, err := closedLoop(threads, warmup, clients); err != nil {
		t.Fatal(err)
	}
	r, err := closedLoop(threads, ops, clients)
	if err != nil {
		t.Fatal(err)
	}
	ceiling := float64(threads*ops) / (warmup * nap).Seconds()
	if r.OpsPerSec <= ceiling {
		t.Errorf("ops/s = %.0f, want above %.0f: the warmup's time was counted", r.OpsPerSec, ceiling)
	}
	if r.Mean >= nap {
		t.Errorf("mean = %v, want below %v: a warmup operation was timed", r.Mean, nap)
	}
}

// TestClosedLoopReportsClientError: an operation's error ends the call and
// is returned, with no cell.
func TestClosedLoopReportsClientError(t *testing.T) {
	boom := errors.New("boom")
	r, err := closedLoop(3, 5, func(th int) func(int) error {
		return func(i int) error {
			if th == 1 && i == 2 {
				return boom
			}
			return nil
		}
	})
	if !errors.Is(err, boom) || r != (Result{}) {
		t.Errorf("closedLoop = %+v, %v; want no cell and %v", r, err, boom)
	}
}

func TestCostModelOrdering(t *testing.T) {
	undo := costFor(kamino.ModeUndo, 0, 50)
	dyn := costFor(kamino.ModeDynamic, 0.5, 50)
	full := costFor(kamino.ModeSimple, 1, 50)
	if !(undo < dyn && dyn < full) {
		t.Errorf("cost ordering broken: undo=%v dyn=%v full=%v", undo, dyn, full)
	}
}

// TestBreakdownAggregatesAcrossPools: the obs accumulator must merge the
// registries of every pool an experiment created and print the per-phase
// table.
func TestBreakdownAggregatesAcrossPools(t *testing.T) {
	var out bytes.Buffer
	cfg := tiny(&out).WithDefaults()
	for _, mode := range []kamino.Mode{kamino.ModeSimple, kamino.ModeUndo} {
		if _, err := cfg.measureYCSB(mode, 1, 'A', 1); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	}
	cfg.printBreakdown()
	s := out.String()
	for _, want := range []string{
		"phase breakdown", "[kamino]", "[undo]",
		"heap_persist", "commit_persist", "backup_lag", "critical_copy",
		"commits=", "nvm.main.lines_flushed=",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("breakdown missing %q:\n%s", want, s)
		}
	}
}

// TestChainBreakdownIncludesReplicas: chain experiments fold per-replica
// protocol counters into the breakdown.
func TestChainBreakdownIncludesReplicas(t *testing.T) {
	var out bytes.Buffer
	cfg := tiny(&out).WithDefaults()
	if _, err := cfg.measureChain(chainpkg.ModeKamino, 'A', 1); err != nil {
		t.Fatal(err)
	}
	cfg.printBreakdown()
	s := out.String()
	for _, want := range []string{"[chain/replica-0]", "forwarded=", "tail_acks=", "[inplace]"} {
		if !strings.Contains(s, want) {
			t.Errorf("chain breakdown missing %q:\n%s", want, s)
		}
	}
}

func TestObsAggAbsorbIdempotent(t *testing.T) {
	src := obs.New("kamino")
	src.Counter("commits").Add(7)
	agg := newObsAgg()
	agg.absorb(src)
	agg.absorb(src) // same registry again: must not double
	if len(agg.order) != 1 {
		t.Fatalf("got %d labels, want 1", len(agg.order))
	}
	if got := agg.regs["kamino"].Snapshot().Counters["commits"]; got != 7 {
		t.Errorf("commits = %d after double absorb, want 7", got)
	}
	// A different registry with the same label still merges.
	src2 := obs.New("kamino")
	src2.Counter("commits").Add(3)
	agg.absorb(src2)
	if got := agg.regs["kamino"].Snapshot().Counters["commits"]; got != 10 {
		t.Errorf("commits = %d after second registry, want 10", got)
	}
}

// TestMeasuredPoolsAreCollectable runs measureYCSB's steps — load, run,
// collect, close — several times on one Config and checks that the harness
// keeps no closed pool's regions reachable. The breakdown accumulator used
// to remember every registry it had absorbed, and a registry's gauge
// closures reach its pool, so an experiment's live heap grew by two regions
// per cell until the process was killed.
func TestMeasuredPoolsAreCollectable(t *testing.T) {
	const rounds = 4
	var out bytes.Buffer
	cfg := tiny(&out).WithDefaults()
	mix, err := workload.MixFor('A')
	if err != nil {
		t.Fatal(err)
	}
	var collected atomic.Int32
	for round := 0; round < rounds; round++ {
		pool, store, err := cfg.loadStore(kamino.ModeSimple, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The finalizer goes on the main region's backing array: a pool
		// sits on reference cycles, and a finalizer on a cycle never runs.
		mem, err := pool.Engine().Heap().Region().ReadSlice(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(&mem[0], func(*byte) { collected.Add(1) })
		if _, err := closedLoop(1, cfg.OpsPerThread, cfg.ycsbClients(store, mix, 1)); err != nil {
			t.Fatal(err)
		}
		cfg.collect(pool)
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Finalizers run on their own goroutine some time after the collection
	// that found the object unreachable.
	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() < rounds-1 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got < rounds-1 {
		t.Fatalf("%d of %d closed pools' heap regions were collected; all but the last must be", got, rounds)
	}
	// The accumulator outlives the pools it absorbed, as it does in an
	// experiment, which prints it last.
	cfg.printBreakdown()
	if !strings.Contains(out.String(), "[kamino]") {
		t.Errorf("breakdown lost the absorbed pools:\n%s", out.String())
	}
}
