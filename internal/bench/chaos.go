package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"kaminotx/internal/obs"
	"kaminotx/internal/stats"
	"kaminotx/internal/trace"
	chainpkg "kaminotx/kamino/chain"
)

// Chaos drives scripted crash schedules against a live Kamino-Tx-Chain:
// kill the middle replica and rebuild it by state transfer, reboot the
// head through the quick-reboot protocol (§5.3), kill the tail, and kill
// the head (forcing a failover and client redirects) — all while
// partitioned clients keep writing. It reports availability (the fraction
// of client operations that succeeded despite the failures), time to
// rejoin after each kill, the worst single-operation stall, and the
// persistent queues' high-water marks (acknowledged-prefix truncation must
// keep them bounded). Every client tracks the last write the chain
// acknowledged per key; after the schedule the experiment reads every key
// back and fails loudly if any acknowledged write was lost or any
// unattempted value fabricated.

const (
	// chaosWorkers partitioned clients each own chaosSpan keys, so clients
	// never contend on admission locks and a stalled key isolates a bug
	// rather than hiding behind another client's progress.
	chaosWorkers = 6
	chaosSpan    = 64
	// chaosFlightTail bounds the trace tail captured into watchdog flight
	// records (matches the in-NVM recorder's tail budget).
	chaosFlightTail = 2048
)

// chaosValue encodes write counter ctr for key: verification decodes the
// counter from the read-back value and compares it against the client's
// acknowledged and attempted counters.
func chaosValue(key, ctr uint64, size int) []byte {
	if size < 16 {
		size = 16
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint64(buf, ctr)
	binary.LittleEndian.PutUint64(buf[8:], key)
	return buf
}

// chaosWorker is one partitioned client: it owns keys [base, base+span)
// and remembers, per key, the highest counter it attempted and the highest
// the chain acknowledged.
type chaosWorker struct {
	base    uint64
	attempt map[uint64]uint64
	acked   map[uint64]uint64
	hist    stats.Histogram
	ops     uint64
	fails   uint64
}

func (w *chaosWorker) run(cl *chainpkg.Cluster, valSize int, stop <-chan struct{}) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		key := w.base + uint64(i)%chaosSpan
		w.ops++
		t0 := time.Now()
		if i%4 == 3 {
			// Mix in tail reads: they exercise the read path's redirects
			// and the frozen donor's read availability.
			if _, _, err := cl.Get(key); err != nil {
				w.fails++
				continue
			}
		} else {
			ctr := w.attempt[key] + 1
			w.attempt[key] = ctr
			if err := cl.Put(key, chaosValue(key, ctr, valSize)); err != nil {
				w.fails++
				continue
			}
			w.acked[key] = ctr
		}
		w.hist.Record(time.Since(t0))
	}
}

// chaosReport is one chain length's measured outcome.
type chaosReport struct {
	result         Result
	ops, fails     uint64
	rejoins        []time.Duration
	inHigh, flHigh uint64
	checked        int
}

func (r chaosReport) availability() float64 {
	if r.ops == 0 {
		return 0
	}
	return 1 - float64(r.fails)/float64(r.ops)
}

func (r chaosReport) rejoinStats() (mean, max time.Duration) {
	if len(r.rejoins) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for _, d := range r.rejoins {
		sum += d
		if d > max {
			max = d
		}
	}
	return sum / time.Duration(len(r.rejoins)), max
}

// chaosRun executes one scripted schedule against a chain of the given
// length. Strict mode is on (the head reboot needs crash simulation) and
// hop batching is enabled so kills land mid-batch.
func (c Config) chaosRun(replicas int) (chaosReport, error) {
	batchOps := c.ChainBatchOps
	if batchOps == 0 {
		batchOps = 8
	}
	batchDelay := c.ChainBatchDelay
	if batchDelay == 0 {
		batchDelay = 100 * time.Microsecond
	}
	keys := chaosWorkers * chaosSpan
	cl, err := chainpkg.New(chainpkg.Options{
		Mode:         chainpkg.ModeKamino,
		Replicas:     replicas,
		HeapSize:     keys*(c.ValueSize+256)*4 + (16 << 20),
		Alpha:        0.5,
		HopLatency:   chainHopLatency,
		FlushLatency: c.FlushLatency,
		FenceLatency: c.FenceLatency,
		Strict:       true,
		BatchOps:     batchOps,
		BatchBytes:   c.ChainBatchBytes,
		BatchDelay:   batchDelay,
		GroupCommit:  c.ChainGroupCommit,
		Trace:        c.Trace,
		Blackbox:     c.Blackbox,
		RetryWindow:  10 * time.Second,
	})
	if err != nil {
		return chaosReport{}, err
	}
	defer cl.Close()
	c.observeChain(cl)

	// Stall watchdog: if a probe sees the chain wedge (admission stuck,
	// backup lag growing without bound, queues near capacity), it dumps a
	// flight record while the run is still live — the 30s wedge timeout
	// below only diagnoses total hangs, after the interesting state is
	// mostly gone.
	wd := c.chaosWatchdog(cl)
	wd.Start()
	defer wd.Stop()

	var rep chaosReport
	sampleQueues := func() {
		for _, qs := range cl.QueueStats() {
			if qs.InputHigh > rep.inHigh {
				rep.inHigh = qs.InputHigh
			}
			if qs.InflightHigh > rep.flHigh {
				rep.flHigh = qs.InflightHigh
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	workers := make([]*chaosWorker, chaosWorkers)
	for i := range workers {
		workers[i] = &chaosWorker{
			base:    uint64(i) * chaosSpan,
			attempt: make(map[uint64]uint64),
			acked:   make(map[uint64]uint64),
		}
	}
	start := time.Now()
	for _, w := range workers {
		wg.Add(1)
		go func(w *chaosWorker) {
			defer wg.Done()
			w.run(cl, c.ValueSize, stop)
		}(w)
	}

	// The schedule. Each kill is followed by a rebuild-and-rejoin; the
	// rejoin time covers failure detection (immediate here), repair, state
	// transfer, and joining the view.
	// waitWorkers bounds the shutdown: a client wedged in head admission
	// (a leaked admission lock) would otherwise hang the run with no
	// diagnosis. On timeout, dump every replica's repair state — the
	// leaked lock's owner is visible in the lock tables.
	waitWorkers := func() error {
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
			return nil
		case <-time.After(30 * time.Second):
			return fmt.Errorf("chaos: clients wedged after schedule (leaked admission lock?); chain state:\n%s", cl.DebugState())
		}
	}
	fail := func(err error) (chaosReport, error) {
		close(stop)
		if werr := waitWorkers(); werr != nil {
			return chaosReport{}, fmt.Errorf("%w; additionally %v", err, werr)
		}
		return chaosReport{}, err
	}
	killRejoin := func(position int) error {
		t0 := time.Now()
		if err := cl.KillReplica(position); err != nil {
			return fmt.Errorf("chaos: kill position %d: %w", position, err)
		}
		if _, err := cl.AddReplica(); err != nil {
			return fmt.Errorf("chaos: rejoin after killing position %d: %w", position, err)
		}
		rep.rejoins = append(rep.rejoins, time.Since(t0))
		sampleQueues()
		// Republish the registry set: the kill retired one replica's
		// actors and the rejoin minted fresh ones; the owner-group sweep
		// drops the dead incarnations from the hub.
		c.observeChain(cl)
		return nil
	}
	settle := func() { time.Sleep(50 * time.Millisecond) }

	settle()
	if err := killRejoin(1); err != nil { // middle
		return fail(err)
	}
	settle()
	if err := cl.RebootReplica(0); err != nil { // head power-cycle (§5.3)
		return fail(fmt.Errorf("chaos: head reboot: %w", err))
	}
	c.observeChain(cl)
	// The reboot ran the crash path, so with the flight recorder enabled
	// the rebooted head retrieved a black-box record from its image; copy
	// it out for post-mortem tooling before later kills destroy the pool.
	for _, fr := range cl.FlightRecords() {
		path, err := c.writeFlightRecord("reboot-"+fr.ID, fr.Raw)
		if err != nil {
			return fail(fmt.Errorf("chaos: write flight record for %s: %w", fr.ID, err))
		}
		if path != "" {
			fmt.Fprintf(c.Out, "chaos: flight record from rebooted %s: %s\n", fr.ID, path)
		}
	}
	settle()
	if err := killRejoin(len(cl.Members()) - 1); err != nil { // tail
		return fail(err)
	}
	settle()
	if err := killRejoin(0); err != nil { // head: failover + redirects
		return fail(err)
	}
	// Let traffic run against the final membership to prove the rebuilt
	// chain is fully serving before measurement ends.
	time.Sleep(100 * time.Millisecond)
	close(stop)
	if err := waitWorkers(); err != nil {
		return chaosReport{}, err
	}
	elapsed := time.Since(start).Seconds()
	// Stop the watchdog before verification: the read-back loop makes no
	// write progress by design, which a stall probe would misread.
	wd.Stop()
	for _, a := range wd.Alarms() {
		fmt.Fprintf(c.Out, "chaos: WATCHDOG %s\n", a)
	}
	sampleQueues()
	if err := cl.Err(); err != nil {
		return chaosReport{}, fmt.Errorf("chaos: replica error after schedule: %w", err)
	}

	// Verification: every acknowledged write must still be readable at a
	// counter at least as high as the last ack and no higher than the last
	// attempt (a failed attempt may have committed; anything beyond it
	// would be fabricated).
	var col stats.Collector
	lost := 0
	for _, w := range workers {
		rep.ops += w.ops
		rep.fails += w.fails
		col.Report(&w.hist, w.ops-w.fails)
		for key, ack := range w.acked {
			val, ok, err := cl.Get(key)
			if err != nil {
				return chaosReport{}, fmt.Errorf("chaos: verify read key %d: %w", key, err)
			}
			rep.checked++
			if !ok || len(val) < 16 {
				lost++
				continue
			}
			ctr := binary.LittleEndian.Uint64(val)
			if ctr < ack || ctr > w.attempt[key] || binary.LittleEndian.Uint64(val[8:]) != key {
				lost++
			}
		}
	}
	if lost > 0 {
		return chaosReport{}, fmt.Errorf("chaos: %d of %d acknowledged keys lost or corrupted", lost, rep.checked)
	}
	c.collectChain(cl)
	rep.result = resultFrom(col.Histogram(), float64(rep.ops-rep.fails)/elapsed)

	mean, max := rep.rejoinStats()
	c.recordCell(Cell{
		Engine:   chainLabel(chainpkg.ModeKamino),
		Workload: "chaos",
		Threads:  chaosWorkers,
		Params: map[string]float64{
			"replicas":       float64(replicas),
			"kills":          3,
			"reboots":        1,
			"fails_per_op":   float64(rep.fails) / float64(rep.ops),
			"rejoin_mean_ns": float64(mean),
			"rejoin_max_ns":  float64(max),
		},
	}.withResult(rep.result))
	return rep, nil
}

// chaosWatchdog wires the reusable stall watchdog to a live cluster with
// the three probes the chaos schedule can wedge: head admission making no
// progress while locks are held, the backup applier falling monotonically
// behind, and a persistent queue filling toward capacity. An alarm dumps
// a flight record (trace tail + obs snapshots + structured chain state)
// into FlightDir so the wedge is diagnosable even if the run later hangs.
func (c Config) chaosWatchdog(cl *chainpkg.Cluster) *obs.Watchdog {
	wd := obs.NewWatchdog(250*time.Millisecond, func(a obs.Alarm) {
		fr := trace.BuildFlightRecord(c.Trace, "watchdog:"+a.Probe, chaosFlightTail)
		fr.Actor = "chaos"
		fr.Note = a.Detail
		for _, r := range cl.Obs() {
			fr.Obs = append(fr.Obs, r.Snapshot())
		}
		if chain, err := json.Marshal(cl.DebugInfos()); err == nil {
			fr.Chain = chain
		}
		raw, err := fr.Encode()
		if err != nil {
			return
		}
		if path, werr := c.writeFlightRecord("watchdog-"+a.Probe, raw); werr == nil && path != "" {
			fmt.Fprintf(c.Out, "chaos: watchdog %s fired: %s (flight record: %s)\n", a.Probe, a.Detail, path)
		}
	})
	// 10 ticks at 250ms: two and a half seconds of held locks or waiters
	// with zero executed transactions is a wedge, not a slow batch.
	wd.Add(obs.StallProbe("admission-stuck", func() (uint64, uint64) {
		infos := cl.DebugInfos()
		if len(infos) == 0 {
			return 0, 0
		}
		head := infos[0].Info
		return head.LastExec, uint64(len(head.LockedKeys) + head.Waiters)
	}, 10))
	// The head engine's backup_pending_txs gauge growing strictly for ten
	// straight samples means the asynchronous backup applier stopped
	// keeping up — the paper's bounded-lag claim (§4) is breaking.
	wd.Add(obs.GrowthProbe("backup-lag", func() uint64 {
		regs := cl.Obs()
		if len(regs) < 2 {
			return 0
		}
		return regs[1].Snapshot().Gauges["backup_pending_txs"]
	}, 10))
	// Acknowledged-prefix truncation should keep each replica's ring far
	// below capacity; 80% occupancy — its two ranges share the one ring —
	// means truncation stopped.
	wd.Add(obs.ThresholdProbe("queue-high-water", func() uint64 {
		var worst uint64
		for _, qs := range cl.QueueStats() {
			if qs.InputCap > 0 {
				worst = max(worst, (qs.InputBytes+qs.InflightBytes)*100/qs.InputCap)
			}
		}
		return worst
	}, 80))
	return wd
}

// auditColumn renders the run's audit mode for the chaos table: the
// mode name, with the online auditor's live violation count appended
// ("online:0" is the healthy steady state; anything else failed the run
// long before this table printed).
func (c Config) auditColumn() string {
	mode := c.AuditMode
	if mode == "" {
		mode = "off"
	}
	if c.AuditViolations != nil {
		return fmt.Sprintf("%s:%d", mode, c.AuditViolations())
	}
	return mode
}

// Chaos reproduces the repair guarantees under fire: scripted kill /
// reboot / rebuild schedules against chains of length 3 and 5 under live
// partitioned write traffic. Expected shape: zero acknowledged writes lost
// at every length; availability dips only while a donor is frozen for
// state transfer; queue high-water marks stay far below capacity because
// acknowledged prefixes are truncated.
func Chaos(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Chaos: kill-rebuild-rejoin under live load, Kamino-Tx-Chain (strict, batched)",
		"expected shape: zero acknowledged writes lost; bounded queues; availability dips only during state transfer")
	fmt.Fprintf(cfg.Out, "%-9s %9s %7s %7s %7s %12s %12s %12s %10s %10s %10s\n",
		"replicas", "ops", "fails", "avail", "keys-ok", "rejoin-avg", "rejoin-max", "stall-max", "inq-high", "flq-high", "audit")
	for _, n := range []int{3, 5} {
		rep, err := cfg.chaosRun(n)
		if err != nil {
			return err
		}
		mean, max := rep.rejoinStats()
		fmt.Fprintf(cfg.Out, "%-9d %9d %7d %6.2f%% %7d %12s %12s %12s %9dK %9dK %10s\n",
			n, rep.ops, rep.fails, 100*rep.availability(), rep.checked,
			mean.Round(time.Millisecond), max.Round(time.Millisecond),
			rep.result.Max.Round(time.Millisecond),
			rep.inHigh>>10, rep.flHigh>>10, cfg.auditColumn())
	}
	cfg.printBreakdown()
	return nil
}
