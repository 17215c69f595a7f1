package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kaminotx/internal/workload"
)

// workloadSpec is one named workload: which system it builds, how its
// clients drive it, and which of its layers the system crosses.
type workloadSpec struct {
	name     string
	mix      workload.Mix
	served   bool // crosses kvwire, server and client
	chained  bool // crosses pqueue, transport and the replica pipeline
	openLoop bool
	setup    func(sz sizes) (system, error)
	// drive runs one client for one window.
	drive func(sys system, c *client, start, deadline time.Time, sz sizes)
	// durability is the workload's crash or restart pass (durability.go).
	durability func(seed int64, sz sizes, dir string) (durabilityResult, error)
}

func (s *workloadSpec) keys(sz sizes) int {
	if s.chained {
		return sz.chainKeys
	}
	return sz.keys
}

func driveEmbed(sys system, c *client, _, deadline time.Time, _ sizes) {
	c.closedLoop(sys, "kvstore.update", "kvstore.read", deadline)
}

func driveChain(sys system, c *client, _, deadline time.Time, _ sizes) {
	c.closedLoop(sys, "chain.put", "chain.get", deadline)
}

func drivePeak(sys system, c *client, start, deadline time.Time, _ sizes) {
	c.pipelined(sys.(*serveSystem).conns[c.id], serveWindow, start, 0, deadline)
}

// driveRate spaces each connection's sends evenly and staggers the
// connections, so the offered load is one request every 1/rate seconds.
func driveRate(sys system, c *client, start, deadline time.Time, sz sizes) {
	gap := time.Duration(float64(time.Second) / sz.rate)
	c.pipelined(sys.(*serveSystem).conns[c.id], rateWindow, start.Add(time.Duration(c.id)*gap), clients*gap, deadline)
}

var workloads = []*workloadSpec{
	{name: "embed-write", mix: workload.MixA, setup: setupEmbed, drive: driveEmbed, durability: embedDurability},
	{name: "embed-read", mix: workload.MixB, setup: setupEmbed, drive: driveEmbed, durability: embedDurability},
	{name: "serve-rate", mix: workload.MixA, served: true, openLoop: true, setup: setupServe, drive: driveRate, durability: serveDurability},
	{name: "serve-peak", mix: workload.MixA, served: true, setup: setupServe, drive: drivePeak, durability: serveDurability},
	{name: "chain-put", mix: workload.MixA, chained: true, setup: setupChain, drive: driveChain, durability: chainDurability},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runMode says which half of the measurement an invocation makes.
type runMode int

const (
	modeBoth     runMode = iota // end-to-end windows, then one traced window
	modeEndToEnd                // --trace 0
	modeTraced                  // --trace 1
)

// windowsPerRun is how many equal windows a run's --seconds are cut into.
// The reported value of a metric is the median over windows.
const windowsPerRun = 7

// plan is how many untraced and traced windows a mode measures. A traced
// run keeps two untraced windows: tracing overhead is their difference.
func (m runMode) plan() (untraced, traced int) {
	switch m {
	case modeEndToEnd:
		return windowsPerRun, 0
	case modeTraced:
		return 2, 2
	default:
		return windowsPerRun, 1
	}
}

// workloadResult is one workload's part of result.json.
type workloadResult struct {
	Correct          bool               `json:"correct"`
	Attempted        uint64             `json:"attempted"`
	Failed           uint64             `json:"failed"`
	Windows          int                `json:"windows"`
	WindowSeconds    float64            `json:"window_s"`
	SaturatedWindows int                `json:"saturated_windows"`
	EndToEnd         map[string]summary `json:"end_to_end,omitempty"`
	PerLayer         map[string]summary `json:"per_layer,omitempty"`
	// Extras are report-only numbers that exist on this workload alone or
	// could not hold a bound (see README): never gated, not in
	// BENCHMARK.json.
	Extras map[string]summary `json:"extras,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
}

// extras are the window metrics kept report-only beside the demoted ones:
// they exist on the open-loop workload alone.
var extras = []metricDef{
	{Name: "client.req_p99_us", Unit: "us"},
	{Name: "client.sched_late_p50_us", Unit: "us"},
	{Name: "client.sched_late_p90_us", Unit: "us"},
	{Name: "client.sched_late_p99_us", Unit: "us"},
}

// collect turns per-window values into per-metric summaries.
func collect(wins []windowResult, defs []metricDef) map[string]summary {
	out := map[string]summary{}
	for _, d := range defs {
		var vals []float64
		for _, w := range wins {
			if v, ok := w.values[d.Name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			out[d.Name] = summarize(d.Unit, vals)
		}
	}
	return out
}

func median(vals []float64) float64 {
	_, q2, _ := quartiles(vals)
	return q2
}

// timedSetup builds one instance and reports how long that took. The heap is
// collected first, untimed, so every set-up starts level.
func timedSetup(spec *workloadSpec, sz sizes) (system, float64, error) {
	runtime.GC()
	t0 := time.Now()
	sys, err := spec.setup(sz)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}
	return sys, time.Since(t0).Seconds(), nil
}

// runWorkload measures one workload: set-up, warm-up, windows, verification,
// durability pass. Ladder metrics are merged in by the caller. log receives
// progress.
func runWorkload(spec *workloadSpec, seed int64, seconds float64, mode runMode, sz sizes, outDir string, log io.Writer) (*workloadResult, error) {
	res := &workloadResult{Extras: map[string]summary{}}
	untraced, traced := mode.plan()
	window := time.Duration(seconds / windowsPerRun * float64(time.Second))
	res.Windows, res.WindowSeconds = untraced, window.Seconds()

	sys, setupTime, err := timedSetup(spec, sz)
	if err != nil {
		return nil, err
	}
	setupTimes := []float64{setupTime}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()

	cs := newClients(seed, spec, sz)
	runWindow(spec, sys, cs, nil, min(window, time.Second), sz) // warm-up, untimed

	var plain, withSpans []windowResult
	for i := 0; i < untraced; i++ {
		plain = append(plain, runWindow(spec, sys, cs, nil, window, sz))
	}
	var recs []*recorder
	if traced > 0 {
		for i := range cs {
			recs = append(recs, newRecorder(i))
		}
	}
	for i := 0; i < traced; i++ {
		withSpans = append(withSpans, runWindow(spec, sys, cs, recs, window, sz))
	}
	for _, w := range append(append([]windowResult(nil), plain...), withSpans...) {
		res.Attempted += w.attempted
		res.Failed += w.failed
		if w.saturated {
			res.SaturatedWindows++
		}
	}
	if res.SaturatedWindows > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("saturated: %d window(s) fell below 99%% of the offered rate or sent half their requests more than 1 ms late; their latencies are not open-loop latencies", res.SaturatedWindows))
	}

	if mode != modeTraced {
		res.EndToEnd = collect(plain, endToEnd)
	}
	res.Extras = collect(plain, append(append([]metricDef(nil), demoted...), extras...))

	if traced > 0 {
		res.PerLayer = collect(withSpans, perLayer)
		for _, d := range demoted {
			res.PerLayer[reportPrefix+d.Name] = res.Extras[d.Name]
		}
		res.PerLayer["bench.trace_overhead_pct"] = summarize("%", []float64{traceOverhead(spec, plain, withSpans)})
		path := filepath.Join(outDir, "trace-"+spec.name+".json")
		if err := writeTrace(path, spec.name, seed, recs); err != nil {
			return nil, err
		}
	}

	// Verification: every key written must hold the last acknowledged
	// value of one of its writers, and the structure must be sound.
	checked, bad := verify(sys, cs)
	res.Attempted += checked
	res.Failed += bad
	if err := sys.check(); err != nil {
		res.Failed++
		res.Notes = append(res.Notes, "invariants: "+err.Error())
	}
	err = sys.close()
	sys = nil
	if err != nil {
		return nil, fmt.Errorf("%s: close: %w", spec.name, err)
	}

	dur, err := spec.durability(seed, sz, outDir)
	if err != nil {
		return nil, fmt.Errorf("%s: durability pass: %w", spec.name, err)
	}
	res.Attempted += dur.checked
	res.Failed += dur.bad
	res.Notes = append(res.Notes, dur.notes...)
	if traced > 0 {
		for name, v := range dur.recovery {
			res.PerLayer[name] = summarize("ms", []float64{v})
		}
	}
	res.Correct = res.Failed == 0

	// Set-up is one wall-clock sample per instance, so when it is being
	// reported it is repeated and the median taken. The repeats come last:
	// an instance that was closed can leave memory behind (a closed chain
	// keeps its regions reachable), which must not reach the windows above.
	if mode != modeTraced {
		for len(setupTimes) < sz.setups {
			extra, t, err := timedSetup(spec, sz)
			if err != nil {
				return nil, err
			}
			setupTimes = append(setupTimes, t)
			if err := extra.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", spec.name, err)
			}
		}
		res.EndToEnd["setup_s"] = summarize("s", setupTimes)
	}
	fmt.Fprintf(log, "# %s: set-up %.2fs (median of %d)\n", spec.name, median(setupTimes), len(setupTimes))
	return res, nil
}

// traceOverhead is what the benchmark's own spans cost, in percent: lost
// throughput on a closed loop, added median put latency on the open one
// (whose throughput is fixed by the schedule).
func traceOverhead(spec *workloadSpec, plain, traced []windowResult) float64 {
	med := func(ws []windowResult, name string) float64 {
		var vals []float64
		for _, w := range ws {
			vals = append(vals, w.values[name])
		}
		return median(vals)
	}
	if spec.openLoop {
		if base := med(plain, "put_p50_us"); base > 0 {
			return 100 * (med(traced, "put_p50_us")/base - 1)
		}
		return 0
	}
	if base := med(plain, "ops_per_s"); base > 0 {
		return 100 * (1 - med(traced, "ops_per_s")/base)
	}
	return 0
}

// verifiers read back in parallel; on the serve workloads that pipelines
// the connections.
const verifiers = 8

// acceptable reports whether a stored value is the last acknowledged put of
// one of the key's writers, or the set-up value if nobody wrote the key.
func acceptable(key uint64, val []byte, found bool, cs []*client) bool {
	if !found {
		return false
	}
	k, writer, seq, ok := checkValue(val)
	if !ok || k != key {
		return false
	}
	if writer == preloadWriter {
		for _, c := range cs {
			if _, wrote := c.acked[key]; wrote {
				return false
			}
		}
		return seq == 0
	}
	if int(writer) >= len(cs) {
		return false
	}
	last, wrote := cs[writer].acked[key]
	return wrote && last == seq
}

// verify reads back every key any client wrote, through the same boundary
// the workload used.
func verify(sys system, cs []*client) (checked, bad uint64) {
	seen := map[uint64]bool{}
	var keys []uint64
	for _, c := range cs {
		for k := range c.acked {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	var wg sync.WaitGroup
	var nbad atomic.Uint64
	for g := 0; g < verifiers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(keys); i += verifiers {
				val, found, err := sys.get(keys[i])
				if err != nil || !acceptable(keys[i], val, found, cs) {
					nbad.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	return uint64(len(keys)), nbad.Load()
}
