// Package nvm simulates byte-addressable non-volatile main memory (NVMM).
//
// Go offers no control over CPU caches, so durability is modeled explicitly:
// a Region keeps a volatile view (what the CPU sees: caches plus memory that
// is not yet guaranteed durable) and, in strict mode, a separate durable
// image (what survives a power failure). Writes land in the volatile view
// and become durable only after Flush of the covering cache lines followed
// by a Fence, mirroring the CLWB/CLFLUSHOPT + SFENCE protocol on real
// persistent-memory hardware.
//
// Crash simulates a power failure: the volatile view is replaced by the
// durable image, losing every write that was not flushed and fenced.
// CrashPartial additionally lets flushed-but-unfenced lines persist
// nondeterministically (seeded), which is exactly the uncertainty a missing
// fence leaves on real hardware. Recovery code is tested against both.
//
// Two modes trade fidelity for speed:
//
//   - ModeStrict tracks dirty and flush-pending cache lines and maintains
//     the durable image. Used by correctness and crash-consistency tests.
//   - ModeFast skips the shadow image and line tracking; Flush and Fence
//     only update counters and apply the configured latency model. Used by
//     benchmarks, where the durable image would double memory traffic.
//
// All mutation must go through Region methods (Write, Store64, Zero, Copy,
// ...) so that strict mode observes every write. Reads may use ReadSlice for
// zero-copy access.
//
// A region is held in memory (New) or in a mapped file (CreateFile,
// OpenFile; see file.go), where a killed process leaves the region's
// durable bytes behind.
package nvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kaminotx/internal/simtime"
	"kaminotx/internal/trace"
)

// LineSize is the simulated cache-line size in bytes. Flush granularity and
// torn-write granularity are both one line, as on current x86 hardware.
const LineSize = 64

// Mode selects the fidelity/speed trade-off for a Region.
type Mode int

const (
	// ModeStrict maintains a durable image and per-line dirty/pending
	// state so crashes can be simulated faithfully.
	ModeStrict Mode = iota
	// ModeFast maintains only statistics and latency; Crash is not
	// supported.
	ModeFast
)

// String names the simulation mode for logs and errors.
func (m Mode) String() string {
	switch m {
	case ModeStrict:
		return "strict"
	case ModeFast:
		return "fast"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// LatencyModel injects artificial device latency so slower NVM technologies
// (3D-XPoint, memristor) can be approximated on DRAM. Zero values add no
// delay, modeling battery-backed DRAM / NVDIMM as in the paper's testbed.
type LatencyModel struct {
	// FlushPerLine is charged for each cache line flushed.
	FlushPerLine time.Duration
	// Fence is charged for each Fence call.
	Fence time.Duration
}

// Stats counts device-level events on a Region: the three quantities a
// persist costs. Counters are cumulative since the Region was created;
// callers snapshot and subtract.
type Stats struct {
	BytesWritten uint64 // by Write/Store/Zero/Copy
	LinesFlushed uint64
	Fences       uint64
}

// Options configures a Region.
type Options struct {
	Mode    Mode
	Latency LatencyModel
}

// Region is a contiguous span of simulated NVM.
type Region struct {
	mode    Mode
	latency LatencyModel
	size    int

	mem []byte // volatile view (CPU caches + memory)

	// Strict mode: mu guards the dirty and flush-pending line sets and the
	// durable image.
	mu      sync.Mutex
	dirty   map[int]struct{}
	pending map[int]struct{}
	durable []byte // durable image (strict mode only)

	// Event counters, one atomic each: every mutation, flush and fence
	// bumps one, from the client and the applier at once on a shared
	// region. Stats assembles the snapshot.
	bytesWritten, linesFlushed, fences atomic.Uint64

	// tracer, when attached, receives device-level trace events. Atomic
	// so SetTracer is safe against concurrent region use; nil when
	// tracing is off (the common case: one atomic load per mutation).
	tracer atomic.Pointer[trace.Tracer]

	fenceHook atomic.Pointer[func()] // see SetFenceHook

	// mapping is a file-backed region's whole mapping, header included
	// (file.go); nil for a region held in memory.
	mapping []byte
}

// New creates a Region of the given size, zero-filled and fully durable.
func New(size int, opts Options) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("nvm: region size %d must be positive", size)
	}
	r := newRegion(size, opts)
	r.mem = make([]byte, size)
	if opts.Mode == ModeStrict {
		r.durable = make([]byte, size)
	}
	return r, nil
}

// newRegion builds a region's bookkeeping; the caller provides its bytes.
func newRegion(size int, opts Options) *Region {
	r := &Region{mode: opts.Mode, latency: opts.Latency, size: size}
	if opts.Mode == ModeStrict {
		r.dirty = make(map[int]struct{})
		r.pending = make(map[int]struct{})
	}
	return r
}

// Size returns the region size in bytes.
func (r *Region) Size() int { return r.size }

// Mode returns the region's fidelity mode.
func (r *Region) Mode() Mode { return r.mode }

// Stats returns a snapshot of the region's event counters. Each counter is
// read on its own: the snapshot is exact once the region is quiescent, and
// while operations are in flight one of them may show in one counter and
// not yet in another.
func (r *Region) Stats() Stats {
	return Stats{
		BytesWritten: r.bytesWritten.Load(),
		LinesFlushed: r.linesFlushed.Load(),
		Fences:       r.fences.Load(),
	}
}

// ErrOutOfRange reports an access outside the region.
var ErrOutOfRange = errors.New("nvm: access out of range")

func (r *Region) check(off, n int) error {
	if off < 0 || n < 0 || off+n > r.size {
		return fmt.Errorf("%w: [%d, %d) in region of %d bytes", ErrOutOfRange, off, off+n, r.size)
	}
	return nil
}

// mutate applies a volatile-view mutation. In strict mode the mutation
// runs under the line mutex so it is ordered with a concurrent
// Fence persisting flushed lines out of the same bytes — two objects
// smaller than a line can share one, so another transaction's fence may
// read the line this one is writing; the dirty-line bookkeeping shares the
// same critical section. Fast mode has no durable image to race with.
func (r *Region) mutate(off, n int, apply func()) {
	if r.mode != ModeStrict || n == 0 {
		apply()
		return
	}
	r.mu.Lock()
	apply()
	for line := off / LineSize; line <= (off+n-1)/LineSize; line++ {
		r.dirty[line] = struct{}{}
		// A line can be re-dirtied after Flush but before Fence; the
		// fence must not persist the new contents of a re-dirtied
		// line as if it had been flushed.
		delete(r.pending, line)
	}
	r.mu.Unlock()
}

// Write copies p into the region at off. The data is volatile until flushed
// and fenced.
func (r *Region) Write(off int, p []byte) error {
	if err := r.check(off, len(p)); err != nil {
		return err
	}
	r.mutate(off, len(p), func() { copy(r.mem[off:], p) })
	r.bytesWritten.Add(uint64(len(p)))
	r.traceWrite(off, len(p))
	return nil
}

// Zero fills [off, off+n) with zero bytes.
func (r *Region) Zero(off, n int) error {
	if err := r.check(off, n); err != nil {
		return err
	}
	r.mutate(off, n, func() { clear(r.mem[off : off+n]) })
	r.bytesWritten.Add(uint64(n))
	r.traceWrite(off, n)
	return nil
}

// Store64 writes an 8-byte little-endian value. On real hardware an aligned
// 8-byte store is atomic with respect to power failure; callers rely on this
// for log records and pointers.
func (r *Region) Store64(off int, v uint64) error {
	if err := r.check(off, 8); err != nil {
		return err
	}
	r.mutate(off, 8, func() { binary.LittleEndian.PutUint64(r.mem[off:], v) })
	r.bytesWritten.Add(8)
	r.traceWrite(off, 8)
	return nil
}

// Store32 writes a 4-byte little-endian value.
func (r *Region) Store32(off int, v uint32) error {
	if err := r.check(off, 4); err != nil {
		return err
	}
	r.mutate(off, 4, func() { binary.LittleEndian.PutUint32(r.mem[off:], v) })
	r.bytesWritten.Add(4)
	r.traceWrite(off, 4)
	return nil
}

// Load64 reads an 8-byte little-endian value from the volatile view.
func (r *Region) Load64(off int) (uint64, error) {
	if err := r.check(off, 8); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(r.mem[off:]), nil
}

// Load32 reads a 4-byte little-endian value from the volatile view.
func (r *Region) Load32(off int) (uint32, error) {
	if err := r.check(off, 4); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(r.mem[off:]), nil
}

// Read copies [off, off+len(p)) into p from the volatile view.
func (r *Region) Read(off int, p []byte) error {
	if err := r.check(off, len(p)); err != nil {
		return err
	}
	copy(p, r.mem[off:])
	return nil
}

// ReadSlice returns a zero-copy view of [off, off+n). The slice aliases the
// volatile view; callers must not write through it (use Write and friends so
// strict mode can track dirty lines).
func (r *Region) ReadSlice(off, n int) ([]byte, error) {
	if err := r.check(off, n); err != nil {
		return nil, err
	}
	return r.mem[off : off+n : off+n], nil
}

// Copy copies n bytes from src at soff into dst at doff, as a single
// device-level write on dst. src and dst may be the same region only for
// non-overlapping ranges.
func Copy(dst *Region, doff int, src *Region, soff, n int) error {
	if err := src.check(soff, n); err != nil {
		return err
	}
	if err := dst.check(doff, n); err != nil {
		return err
	}
	dst.mutate(doff, n, func() { copy(dst.mem[doff:doff+n], src.mem[soff:soff+n]) })
	dst.bytesWritten.Add(uint64(n))
	dst.traceWrite(doff, n)
	return nil
}

func lines(off, n int) int {
	if n == 0 {
		return 0
	}
	return (off+n-1)/LineSize - off/LineSize + 1
}

// Flush initiates write-back of every cache line overlapping [off, off+n),
// like CLWB. The lines are not durable until the next Fence.
func (r *Region) Flush(off, n int) error {
	if err := r.check(off, n); err != nil {
		return err
	}
	nl := lines(off, n)
	r.linesFlushed.Add(uint64(nl))
	if r.mode == ModeStrict && n > 0 {
		r.mu.Lock()
		for line := off / LineSize; line <= (off+n-1)/LineSize; line++ {
			if _, ok := r.dirty[line]; ok {
				delete(r.dirty, line)
				r.pending[line] = struct{}{}
			}
		}
		r.mu.Unlock()
	}
	if r.latency.FlushPerLine > 0 {
		spin(time.Duration(nl) * r.latency.FlushPerLine)
	}
	r.traceFlush(off, n)
	return nil
}

// Fence orders and completes all previously flushed lines, like SFENCE.
// After Fence returns, every line flushed before the call is durable.
func (r *Region) Fence() {
	if h := r.fenceHook.Load(); h != nil {
		(*h)()
	}
	r.fences.Add(1)
	if r.mode == ModeStrict {
		r.mu.Lock()
		if len(r.pending) > 0 {
			for line := range r.pending {
				r.persistLine(line)
			}
			r.resetPending()
		}
		r.mu.Unlock()
	}
	if r.latency.Fence > 0 {
		spin(r.latency.Fence)
	}
	r.traceFence()
}

// SetFenceHook makes every Fence call fn first (nil removes it), at the one
// instant each line flushed since the previous fence may or may not be
// durable. Crash-point enumeration tests power-fail the region from it.
func (r *Region) SetFenceHook(fn func()) {
	if fn == nil {
		r.fenceHook.Store(nil)
		return
	}
	r.fenceHook.Store(&fn)
}

// pendingKeep bounds the pending set a fence empties in place; a larger one
// is replaced instead.
const pendingKeep = 64

// resetPending empties the pending set. A map keeps the capacity it grew
// to, and ranging or clearing it costs that capacity, so a set that held
// many lines (a Format persists its whole region) is replaced rather than
// cleared: every later fence would otherwise walk all of its empty slots.
// Caller holds mu.
func (r *Region) resetPending() {
	if len(r.pending) > pendingKeep {
		r.pending = make(map[int]struct{})
		return
	}
	clear(r.pending)
}

// persistLine copies one line from the volatile view to the durable image.
// Caller holds mu.
func (r *Region) persistLine(line int) {
	start := line * LineSize
	end := start + LineSize
	if end > r.size {
		end = r.size
	}
	copy(r.durable[start:end], r.mem[start:end])
}

// Persist is the common flush-then-fence sequence for a single range.
func (r *Region) Persist(off, n int) error {
	if err := r.Flush(off, n); err != nil {
		return err
	}
	r.Fence()
	return nil
}

// ErrFastMode reports a strict-mode-only operation on a fast-mode region.
var ErrFastMode = errors.New("nvm: operation requires ModeStrict")

// Crash simulates a power failure: the volatile view is replaced by the
// durable image. Writes that were flushed but not fenced are lost, matching
// the most pessimistic hardware outcome. Strict mode only.
func (r *Region) Crash() error {
	return r.crash(nil)
}

// CrashPartial simulates a power failure where each flushed-but-unfenced
// line independently persists iff keep(line) returns true. This models the
// real uncertainty of CLWB without a completing SFENCE. Strict mode only.
func (r *Region) CrashPartial(keep func(line int) bool) error {
	if keep == nil {
		keep = func(int) bool { return false }
	}
	return r.crash(keep)
}

// KeepBySeed is a CrashPartial outcome drawn from seed: each line survives
// or not by a hash of seed and the line number, so one seed replays one
// outcome on every region it crashes.
func KeepBySeed(seed int64) func(line int) bool {
	return func(line int) bool {
		h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(line)
		h ^= h >> 31
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		return h&1 == 0
	}
}

func (r *Region) crash(keep func(line int) bool) error {
	if r.mode != ModeStrict {
		return ErrFastMode
	}
	// Under mu no write, flush or fence is in flight while the volatile
	// view is rewound.
	r.mu.Lock()
	defer r.mu.Unlock()
	for line := range r.pending {
		if keep != nil && keep(line) {
			r.persistLine(line)
		}
	}
	r.resetPending()
	clear(r.dirty)
	copy(r.mem, r.durable)
	r.traceCrash(keep != nil)
	return nil
}

// IsPersisted reports whether every byte of [off, off+n) in the volatile
// view matches the durable image, i.e. whether the range would survive a
// crash right now. Strict mode only; used by invariant tests.
func (r *Region) IsPersisted(off, n int) (bool, error) {
	if r.mode != ModeStrict {
		return false, ErrFastMode
	}
	if err := r.check(off, n); err != nil {
		return false, err
	}
	if n == 0 {
		return true, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := off; i < off+n; i++ {
		if r.mem[i] != r.durable[i] {
			return false, nil
		}
	}
	return true, nil
}

// spin stalls the calling goroutine for d of device time: a flush or
// fence does not return before the monotonic clock shows d elapsed.
// simtime.Wait is the one place that time is spent; it keeps the processor
// for stalls under a microsecond and offers it to other goroutines
// (Kamino's backup applier, the other client) at most once per microsecond
// of a longer one.
func spin(d time.Duration) { simtime.Wait(d) }
