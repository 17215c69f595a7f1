package kamino

import (
	"bytes"
	"testing"

	"kaminotx/internal/engine"
	"kaminotx/internal/engine/cow"
	"kaminotx/internal/engine/nolog"
	"kaminotx/internal/engine/undo"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/nvm"
)

// cost is what a span of a script did to the device, summed over every
// region of the engine.
type cost struct{ fences, lines, bytes uint64 }

func (c cost) sub(o cost) cost {
	return cost{c.fences - o.fences, c.lines - o.lines, c.bytes - o.bytes}
}

// deviceNS is the device time kaminobench's default latency model (500 ns a
// fence, 300 ns a flushed line) charges for c.
func (c cost) deviceNS() uint64 { return 500*c.fences + 300*c.lines }

// heldApplier is gatedBackend for a counted script: every sync the applier
// makes waits at the gate. A sync made while no committed transaction is
// pending comes from inside a commit, on its critical path: it runs unheld,
// and the script's critical counts take it in.
type heldApplier struct {
	gatedBackend
	e *Engine
}

func (h heldApplier) syncToBackup(obj heap.ObjID, dirty engine.Extent, path copyPath) error {
	if h.e.pending.Load() == 0 {
		return h.backend.syncToBackup(obj, dirty, path)
	}
	return h.gatedBackend.syncToBackup(obj, dirty, path)
}

// rig is one engine over fresh regions, driven by one client.
type rig struct {
	e       engine.Engine
	regions []*nvm.Region
}

var countedLog = intentlog.Config{Slots: 8, EntriesPerSlot: 32, DataBytesPerSlot: 64 << 10}

func newRig(t *testing.T, name string) *rig {
	t.Helper()
	region := func(size int) *nvm.Region {
		r, err := nvm.New(size, nvm.Options{Mode: nvm.ModeFast})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	main := region(mainSize)
	var (
		e    engine.Engine
		regs = []*nvm.Region{main}
		err  error
	)
	switch name {
	case "nolog":
		e, err = nolog.New(main)
	case "undo", "cow":
		log := region(countedLog.RegionSize())
		regs = append(regs, log)
		if name == "undo" {
			e, err = undo.New(main, log, countedLog)
		} else {
			e, err = cow.New(main, log, countedLog)
		}
	case "kamino-simple", "kamino-dynamic":
		backupSize := mainSize
		if name == "kamino-dynamic" {
			backupSize = mainSize / 2
		}
		backup, log := region(backupSize), region(testCfg.Log.RegionSize())
		regs = append(regs, backup, log)
		e, err = New(main, backup, log, Config{Log: testCfg.Log, ApplierWorkers: 1})
	default:
		t.Fatalf("no engine %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return &rig{e: e, regions: regs}
}

func (r *rig) counts() cost {
	var c cost
	for _, reg := range r.regions {
		s := reg.Stats()
		c.fences += s.Fences
		c.lines += s.LinesFlushed
		c.bytes += s.BytesWritten
	}
	return c
}

// alloc commits n objects of size bytes in one transaction.
func (r *rig) alloc(t *testing.T, n, size int) []heap.ObjID {
	t.Helper()
	tx, err := r.e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]heap.ObjID, n)
	for i := range objs {
		if objs[i], err = tx.Alloc(size); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r.e.Drain()
	return objs
}

// update overwrites every object of objs whole with fill in one
// transaction. crit is what the device did from Begin until Commit
// returned, with a Kamino applier held at the gate; async is what it did
// after the gate opened, until Drain returned.
func (r *rig) update(t *testing.T, objs []heap.ObjID, size int, fill byte) (crit, async cost) {
	t.Helper()
	k, held := r.e.(*Engine)
	var gate gatedBackend
	if held {
		gate = gatedBackend{backend: k.backend, gate: make(chan struct{}), arrived: make(chan heap.ObjID, len(objs))}
		k.backend = heldApplier{gate, k}
	}
	before := r.counts()
	tx, err := r.e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{fill}, size)
	for _, obj := range objs {
		if err := tx.Add(obj); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(obj, 0, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	mid := r.counts()
	if held {
		close(gate.gate)
	}
	r.e.Drain()
	if held {
		k.backend = gate.backend
	}
	return mid.sub(before), r.counts().sub(mid)
}

// updateCells pins what one update of n existing objects of size bytes,
// each overwritten whole, costs each engine: on the critical path (Begin
// until Commit returns) and after it (Kamino's applier: backup sync and slot
// release). Critical fences are 1 for nolog, n+2 for kamino-simple, 2n+3 for
// undo and 3n+5 for cow.
var updateCells = []struct {
	engine      string
	n, size     int
	crit, async cost
}{
	{"nolog", 1, 64, cost{1, 2, 64}, cost{}},
	{"kamino-simple", 1, 64, cost{3, 5, 120}, cost{2, 3, 68}},
	{"undo", 1, 64, cost{5, 9, 208}, cost{}},
	{"cow", 1, 64, cost{8, 11, 288}, cost{}},
	{"nolog", 4, 64, cost{1, 7, 256}, cost{}},
	{"kamino-simple", 4, 64, cost{6, 16, 420}, cost{5, 8, 260}},
	{"undo", 4, 64, cost{11, 29, 760}, cost{}},
	{"cow", 4, 64, cost{17, 38, 1080}, cost{}},
	{"nolog", 20, 64, cost{1, 35, 1280}, cost{}},
	{"kamino-simple", 20, 64, cost{22, 76, 2020}, cost{21, 36, 1284}},
	{"undo", 20, 64, cost{43, 137, 3704}, cost{}},
	{"cow", 20, 64, cost{65, 182, 5304}, cost{}},
	{"nolog", 1, 1024, cost{1, 17, 1024}, cost{}},
	{"kamino-simple", 1, 1024, cost{3, 20, 1080}, cost{2, 18, 1028}},
	{"undo", 1, 1024, cost{5, 39, 2128}, cost{}},
	{"cow", 1, 1024, cost{8, 56, 3168}, cost{}},
	{"nolog", 4, 1024, cost{1, 67, 4096}, cost{}},
	{"kamino-simple", 4, 1024, cost{6, 76, 4260}, cost{5, 68, 4100}},
	{"undo", 4, 1024, cost{11, 149, 8440}, cost{}},
	{"cow", 4, 1024, cost{17, 218, 12600}, cost{}},
	{"nolog", 20, 1024, cost{1, 335, 20480}, cost{}},
	{"kamino-simple", 20, 1024, cost{22, 376, 21220}, cost{21, 336, 20484}},
	{"undo", 20, 1024, cost{43, 737, 42104}, cost{}},
	{"cow", 20, 1024, cost{65, 1082, 62904}, cost{}},
}

// cellKey names one update cell.
type cellKey struct {
	engine  string
	n, size int
}

// TestCountedVerdicts decides the paper's device-cost claims from exact
// counts of single-client scripts, with no latency injected and no clock
// read (EXPERIMENTS.md, "Counted verdicts"):
//
//   - Fig 12/13's mechanism: critical device time orders nolog ≤
//     kamino-simple < undo < cow in every cell, kamino-simple copies nothing
//     on the critical path, and undo's cost over Kamino's does not fall as
//     the write set or the object grows.
//   - §4's dynamic backup: a warm object costs exactly what kamino-simple
//     does; a cold one adds the miss's copy.
//   - §7.1's dependent and worst-case runs: a same-object successor waits
//     for its predecessor's asynchronous work, so it costs Kamino critical
//     plus async; undo's successor waits for nothing.
//   - Table 1's lc: undo's critical time minus Kamino's, one 1 KiB object.
func TestCountedVerdicts(t *testing.T) {
	crit := map[cellKey]cost{}
	async := map[cellKey]cost{}
	for _, c := range updateCells {
		r := newRig(t, c.engine)
		objs := r.alloc(t, c.n, c.size)
		r.update(t, objs, c.size, 1) // the engine's steady state: every object written once
		copied := r.e.Stats().BytesCopiedCritical
		k := cellKey{c.engine, c.n, c.size}
		crit[k], async[k] = r.update(t, objs, c.size, 2)
		copied = r.e.Stats().BytesCopiedCritical - copied
		t.Logf("%-13s n=%-2d %4d B  critical %3d/%4d/%5d %6d ns  async %2d/%3d/%5d %6d ns  copied %5d B",
			c.engine, c.n, c.size, crit[k].fences, crit[k].lines, crit[k].bytes, crit[k].deviceNS(),
			async[k].fences, async[k].lines, async[k].bytes, async[k].deviceNS(), copied)
		if crit[k] != c.crit || async[k] != c.async {
			t.Errorf("%s n=%d %d B: critical %+v async %+v, want %+v and %+v", c.engine, c.n, c.size, crit[k], async[k], c.crit, c.async)
		}
		if c.engine == "kamino-simple" && copied != 0 {
			t.Errorf("kamino-simple n=%d %d B copied %d bytes on the critical path", c.n, c.size, copied)
		}
	}

	ns := func(engine string, n, size int) uint64 { return crit[cellKey{engine, n, size}].deviceNS() }
	sizes, counts := []int{64, 1024}, []int{1, 4, 20}
	for _, size := range sizes {
		for _, n := range counts {
			no, ka, un, co := ns("nolog", n, size), ns("kamino-simple", n, size), ns("undo", n, size), ns("cow", n, size)
			if !(no <= ka && ka < un && un < co) {
				t.Errorf("n=%d %d B: critical ns nolog %d, kamino %d, undo %d, cow %d; want nolog ≤ kamino < undo < cow", n, size, no, ka, un, co)
			}
			// Worst case and bursty dependents: the successor pays Kamino's
			// async work, and still costs less than undo's.
			succ := ka + async[cellKey{"kamino-simple", n, size}].deviceNS()
			t.Logf("n=%-2d %4d B  undo/kamino %.3f  kamino successor %6d ns (%.3f of undo, %.2f of an independent update)",
				n, size, float64(un)/float64(ka), succ, float64(succ)/float64(un), float64(succ)/float64(ka))
			if succ >= un {
				t.Errorf("n=%d %d B: Kamino's same-object successor costs %d ns, undo's %d", n, size, succ, un)
			}
		}
	}
	// undo/kamino must not fall from cell a to cell b: un_a·ka_b ≤ un_b·ka_a.
	notFalling := func(a, b cellKey) {
		t.Helper()
		if ns("undo", a.n, a.size)*ns("kamino-simple", b.n, b.size) > ns("undo", b.n, b.size)*ns("kamino-simple", a.n, a.size) {
			t.Errorf("undo/kamino falls from n=%d %d B to n=%d %d B", a.n, a.size, b.n, b.size)
		}
	}
	for _, size := range sizes {
		for i := 1; i < len(counts); i++ {
			notFalling(cellKey{"", counts[i-1], size}, cellKey{"", counts[i], size})
		}
	}
	for _, n := range counts {
		notFalling(cellKey{"", n, 64}, cellKey{"", n, 1024})
		// The worst case converges as objects grow: the successor's share
		// of undo's cost rises with the object size.
		share := func(size int) float64 {
			succ := ns("kamino-simple", n, size) + async[cellKey{"kamino-simple", n, size}].deviceNS()
			return float64(succ) / float64(ns("undo", n, size))
		}
		if share(64) >= share(1024) {
			t.Errorf("n=%d: the successor's share of undo does not rise from %.3f at 64 B to %.3f at 1 KiB", n, share(64), share(1024))
		}
	}
	lc := int64(ns("undo", 1, 1024)) - int64(ns("kamino-simple", 1, 1024))
	t.Logf("Table 1: lc = %d ns", lc)
	if lc <= 0 {
		t.Errorf("lc = %d ns, want > 0", lc)
	}

	// Kamino-Tx-Dynamic: the first update of an object misses (its backup
	// copy is made on the critical path, in the backup region); the second
	// hits and costs exactly what kamino-simple's update does.
	r := newRig(t, "kamino-dynamic")
	objs := r.alloc(t, 1, 1024)
	cold, coldAsync := r.update(t, objs, 1024, 1)
	warm, warmAsync := r.update(t, objs, 1024, 2)
	t.Logf("kamino-dynamic 1 KiB  cold %+v %d ns  warm %+v %d ns", cold, cold.deviceNS(), warm, warm.deviceNS())
	if want := (cost{8, 66, 3691}); cold != want {
		t.Errorf("cold update: critical %+v, want %+v", cold, want)
	}
	if simple := crit[cellKey{"kamino-simple", 1, 1024}]; warm != simple {
		t.Errorf("warm update: critical %+v, kamino-simple's %+v", warm, simple)
	}
	if simple := async[cellKey{"kamino-simple", 1, 1024}]; coldAsync != simple || warmAsync != simple {
		t.Errorf("async after a cold update %+v, after a warm one %+v, kamino-simple's %+v", coldAsync, warmAsync, simple)
	}
}
