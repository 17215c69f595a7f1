// Package simtime spends simulated time. The NVM model's flush, fence and
// read latencies (internal/nvm) and the in-process transport's network hop
// (internal/transport) are all injected through Wait, so one loop decides
// what a stalled goroutine costs the rest of the process (DESIGN.md §10.2).
package simtime

import (
	"runtime"
	"time"
)

const (
	// yieldQuantum bounds how long a waiter keeps the processor before it
	// offers it to other goroutines. A runtime.Gosched re-enters the global
	// run queue under the scheduler lock, so yielding on every clock read
	// (~50 ns) turns device time into lock contention; never yielding
	// starves the backup applier and the other client on a two-CPU host.
	// One microsecond sits between the two: a 300 ns line flush and a
	// 500 ns fence never yield, a 16-line flush yields about four times.
	yieldQuantum = time.Microsecond

	// sleepAbove is where time.Sleep takes over from polling: its
	// granularity is tens of microseconds, too coarse for device latencies
	// and the 3 µs hop, fine for anything longer than this.
	sleepAbove = 100 * time.Microsecond
)

// Wait returns once the monotonic clock shows at least d elapsed since the
// call. Waits above 100 µs sleep; shorter ones poll the clock and call
// runtime.Gosched only when a full microsecond has passed since the wait
// began or since its last yield.
func Wait(d time.Duration) {
	if d <= 0 {
		return
	}
	if d > sleepAbove {
		time.Sleep(d)
		return
	}
	start := time.Now()
	yieldAt := yieldQuantum
	for {
		el := time.Since(start)
		if el >= d {
			return
		}
		if el >= yieldAt {
			runtime.Gosched()
			yieldAt = time.Since(start) + yieldQuantum
		}
	}
}
