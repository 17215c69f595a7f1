package simtime

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWaitNeverReturnsEarly(t *testing.T) {
	for _, d := range []time.Duration{
		-time.Microsecond, 0,
		300 * time.Nanosecond,  // one line flush
		500 * time.Nanosecond,  // one fence
		4800 * time.Nanosecond, // a 16-line flush
		50 * time.Microsecond,
		sleepAbove + 50*time.Microsecond, // the time.Sleep path
	} {
		for i := 0; i < 50; i++ {
			start := time.Now()
			Wait(d)
			if el := time.Since(start); el < d {
				t.Fatalf("Wait(%v) returned after %v", d, el)
			}
		}
	}
}

// ranDuringWait reports in how many of trials waits of d a second runnable
// goroutine got the only processor before Wait returned. Yields are
// deterministic on one P (the new goroutine sits in runnext and runs only
// when the waiter gives the processor up), but the runtime may preempt or
// the host may stall the thread, so callers compare against half the
// trials rather than all or none.
func ranDuringWait(d time.Duration, trials int) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := 0
	for i := 0; i < trials; i++ {
		var ran atomic.Bool
		go ran.Store(true)
		Wait(d)
		if ran.Load() {
			n++
		}
		for !ran.Load() {
			runtime.Gosched()
		}
	}
	return n
}

func TestWaitYieldsDuringLongStall(t *testing.T) {
	const trials = 100
	if n := ranDuringWait(50*time.Microsecond, trials); n <= trials/2 {
		t.Errorf("a runnable goroutine ran during %d of %d 50µs waits: the wait does not yield", n, trials)
	}
}

func TestWaitKeepsProcessorForShortStall(t *testing.T) {
	const trials = 100
	if n := ranDuringWait(500*time.Nanosecond, trials); n >= trials/2 {
		t.Errorf("a runnable goroutine ran during %d of %d 500ns waits: a sub-quantum wait yields", n, trials)
	}
}

// BenchmarkWait reports how far past d a wait returns, the cost a change to
// the loop (clock reads per iteration, yield cadence) would move.
func BenchmarkWait(b *testing.B) {
	for _, d := range []time.Duration{300 * time.Nanosecond, 500 * time.Nanosecond, 4800 * time.Nanosecond} {
		b.Run(d.String(), func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				Wait(d)
			}
			perOp := float64(time.Since(start)) / float64(b.N)
			b.ReportMetric(perOp-float64(d), "overshoot-ns")
		})
	}
}
