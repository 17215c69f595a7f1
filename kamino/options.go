package kamino

import (
	"fmt"
	"time"

	"kaminotx/internal/intentlog"
	"kaminotx/internal/trace"
)

// Mode selects the atomicity mechanism backing a Pool.
type Mode string

// Supported atomicity mechanisms. Simple and Dynamic are the paper's
// contribution; the others are the baselines it is evaluated against.
const (
	// ModeSimple is Kamino-Tx-Simple: in-place updates with a full-size
	// backup heap maintained asynchronously. No data is copied in the
	// critical path.
	ModeSimple Mode = "kamino-simple"
	// ModeDynamic is Kamino-Tx-Dynamic: like Simple, but the backup
	// holds only the most frequently modified objects in Alpha × HeapSize
	// bytes of NVM. Backup misses copy one object in the critical path.
	ModeDynamic Mode = "kamino-dynamic"
	// ModeUndo is NVML-style undo logging: old object contents are
	// copied to a persistent log in the critical path before each edit.
	ModeUndo Mode = "undo"
	// ModeCoW is copy-on-write: edits go to persistent shadow copies
	// that are applied back to the originals at commit.
	ModeCoW Mode = "cow"
	// ModeNoLog is the unsafe no-atomicity baseline (isolation and
	// durability only). Aborts and crashes can tear data. Benchmarks
	// only.
	ModeNoLog Mode = "nolog"
	// ModeInPlace is the non-head Kamino-Tx-Chain replica engine (paper
	// §5): in-place updates with an intent log but no local copies of
	// any kind. Abort is unsupported; crash recovery of incomplete
	// transactions needs object images from a chain neighbour.
	ModeInPlace Mode = "inplace"
)

// Modes lists every supported engine mode, in the order the paper
// presents them. CLI tools build their -mode usage text and validation
// from this list so it cannot drift from the engine set.
func Modes() []Mode {
	return []Mode{ModeSimple, ModeDynamic, ModeUndo, ModeCoW, ModeNoLog, ModeInPlace}
}

// ModeNames renders Modes for usage strings: "kamino-simple,
// kamino-dynamic, undo, cow, nolog, inplace".
func ModeNames() string {
	names := ""
	for i, m := range Modes() {
		if i > 0 {
			names += ", "
		}
		names += string(m)
	}
	return names
}

// Options configures Create. The json tags name a file-backed pool's
// pool.json fields, which record its structure and tunables.
type Options struct {
	// Mode selects the atomicity mechanism. Default ModeSimple.
	Mode Mode `json:"mode"`

	// HeapSize is the main heap region size in bytes. Default 64 MiB.
	HeapSize int `json:"heap_size"`

	// Alpha is the dynamic backup budget as a fraction of HeapSize,
	// the paper's α ∈ (0, 1). Only used by ModeDynamic. Default 0.5.
	Alpha float64 `json:"alpha"`

	// LogSlots bounds concurrently outstanding transactions (including
	// Kamino commits awaiting backup sync). Default 128.
	LogSlots int `json:"log_slots"`
	// LogEntriesPerSlot bounds one transaction's write-set. Default 64.
	LogEntriesPerSlot int `json:"log_entries_per_slot"`
	// LogDataBytesPerSlot sizes per-slot copy space for undo/CoW modes.
	// Default 64 KiB; forced to 0 for Kamino modes (which never log
	// data).
	LogDataBytesPerSlot int `json:"log_data_bytes_per_slot"`

	// ApplierWorkers is the number of asynchronous backup-sync workers
	// for Kamino modes, each with its own queue (a committed transaction
	// is routed by a hash of its smallest ObjID, so a hot object's
	// copy-backs stay on one worker). Default GOMAXPROCS/2, minimum 1.
	ApplierWorkers int `json:"applier_workers,omitempty"`

	// Strict enables full crash-simulation fidelity on the underlying
	// NVM regions (durable shadow images, line-granular crash loss).
	// Required for Pool.Crash; costs roughly 2× memory and extra
	// tracking. Default off (benchmark-grade fast mode).
	Strict bool `json:"strict"`

	// FlushLatency, FenceLatency emulate slower NVM technologies by
	// delaying each cache-line flush / fence. Zero models NVDIMM
	// (DRAM-speed), the paper's testbed.
	FlushLatency time.Duration `json:"-"`
	FenceLatency time.Duration `json:"-"`

	// Dir, when non-empty, is the pool's device: each region is a file in
	// Dir mapped into the process (main.img, backup.img, log.img, beside
	// pool.json), so a transaction is in the files from the moment it
	// commits and survives the process being killed at any instant.
	// Open(dir) maps them again and recovers. Fast mode writes the files
	// as the CPU writes; Strict writes them only as lines are flushed and
	// fenced, so a killed strict process leaves what Crash would.
	Dir string `json:"-"`

	// Trace, when non-nil, records every NVM device event and transaction
	// lifecycle event into the given ring buffer for export
	// (trace.WriteJSONL, trace.WriteChrome) and safety auditing
	// (trace.AttachOnline, trace.AuditAll). Each engine incarnation — including the ones built
	// by Crash and Promote — registers a fresh actor name
	// "<engine>#<n>", with its regions as "<actor>/main", "/backup",
	// "/log". With Trace nil the hot path pays at most one atomic nil
	// check per would-be event.
	Trace *trace.Recorder `json:"-"`
}

// applyOverrides merges an Open-time override into stored options. Runtime
// tunables (ApplierWorkers, latencies, Trace) replace the stored value when
// set. Structural fields describe the stored images and cannot be
// changed by reopening: a non-zero structural field in the override must
// equal the stored value or the open fails, instead of silently
// reinterpreting the images under a different geometry.
func (o Options) applyOverrides(ov Options) (Options, error) {
	structural := []struct {
		name           string
		over, stored   any
		zero, conflict bool
	}{
		{"Mode", ov.Mode, o.Mode, ov.Mode == "", ov.Mode != o.Mode},
		{"HeapSize", ov.HeapSize, o.HeapSize, ov.HeapSize == 0, ov.HeapSize != o.HeapSize},
		{"Alpha", ov.Alpha, o.Alpha, ov.Alpha == 0, ov.Alpha != o.Alpha},
		{"LogSlots", ov.LogSlots, o.LogSlots, ov.LogSlots == 0, ov.LogSlots != o.LogSlots},
		{"LogEntriesPerSlot", ov.LogEntriesPerSlot, o.LogEntriesPerSlot, ov.LogEntriesPerSlot == 0, ov.LogEntriesPerSlot != o.LogEntriesPerSlot},
		{"LogDataBytesPerSlot", ov.LogDataBytesPerSlot, o.LogDataBytesPerSlot, ov.LogDataBytesPerSlot == 0, ov.LogDataBytesPerSlot != o.LogDataBytesPerSlot},
		{"Strict", ov.Strict, o.Strict, !ov.Strict, ov.Strict != o.Strict},
		{"Dir", ov.Dir, o.Dir, ov.Dir == "", ov.Dir != o.Dir},
	}
	for _, f := range structural {
		if !f.zero && f.conflict {
			return o, fmt.Errorf("override %s=%v conflicts with stored pool (%v); structural options cannot change on reopen", f.name, f.over, f.stored)
		}
	}
	if ov.ApplierWorkers != 0 {
		o.ApplierWorkers = ov.ApplierWorkers
	}
	if ov.FlushLatency != 0 {
		o.FlushLatency = ov.FlushLatency
	}
	if ov.FenceLatency != 0 {
		o.FenceLatency = ov.FenceLatency
	}
	if ov.Trace != nil {
		o.Trace = ov.Trace
	}
	return o, nil
}

func (o Options) withDefaults() (Options, error) {
	if o.Mode == "" {
		o.Mode = ModeSimple
	}
	switch o.Mode {
	case ModeSimple, ModeDynamic, ModeUndo, ModeCoW, ModeNoLog, ModeInPlace:
	default:
		return o, fmt.Errorf("kamino: unknown mode %q", o.Mode)
	}
	if o.HeapSize == 0 {
		o.HeapSize = 64 << 20
	}
	if o.HeapSize < 4096 {
		return o, fmt.Errorf("kamino: HeapSize %d too small", o.HeapSize)
	}
	if o.Alpha == 0 {
		o.Alpha = 0.5
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		if o.Mode == ModeDynamic {
			return o, fmt.Errorf("kamino: Alpha must be in (0,1), got %v", o.Alpha)
		}
	}
	if o.LogSlots == 0 {
		o.LogSlots = 128
	}
	// Each commit queued for a worker holds a log slot until its backup
	// sync, so a worker past the slot count could never have work.
	if o.ApplierWorkers < 0 || o.ApplierWorkers > o.LogSlots {
		return o, fmt.Errorf("kamino: ApplierWorkers %d outside [0, LogSlots %d]", o.ApplierWorkers, o.LogSlots)
	}
	if o.LogEntriesPerSlot == 0 {
		o.LogEntriesPerSlot = 64
	}
	if o.LogDataBytesPerSlot == 0 {
		o.LogDataBytesPerSlot = 64 << 10
	}
	// A zero ApplierWorkers flows through to the engine, which picks a
	// GOMAXPROCS-scaled default.
	return o, nil
}

func (o Options) logConfig() intentlog.Config {
	data := o.LogDataBytesPerSlot
	if o.Mode == ModeSimple || o.Mode == ModeDynamic || o.Mode == ModeNoLog || o.Mode == ModeInPlace {
		data = 0
	}
	return intentlog.Config{
		Slots:            o.LogSlots,
		EntriesPerSlot:   o.LogEntriesPerSlot,
		DataBytesPerSlot: data,
	}
}

func (o Options) backupSize() int {
	switch o.Mode {
	case ModeSimple:
		return o.HeapSize
	case ModeDynamic:
		n := int(o.Alpha * float64(o.HeapSize))
		if n < 16<<10 {
			n = 16 << 10
		}
		return n
	default:
		return 0
	}
}
