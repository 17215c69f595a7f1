package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"kaminotx/internal/obs"
	"kaminotx/internal/obs/series"
)

// ArtifactSchema versions the BENCH_*.json layout. Bump it on any change
// that would make benchdiff misread older artifacts.
const ArtifactSchema = 1

// Artifact is the machine-readable record of one experiment run: the
// configuration, every measured cell, the per-engine observability
// snapshots accumulated over the run, and the sampled time series. It is
// what `kaminobench -bench-out` writes as BENCH_<experiment>.json and what
// tools/benchdiff aligns and compares.
type Artifact struct {
	Schema     int             `json:"schema"`
	Experiment string          `json:"experiment"`
	Config     ArtifactConfig  `json:"config"`
	Cells      []Cell          `json:"cells"`
	Registries []obs.Snapshot  `json:"registries,omitempty"`
	Series     []series.Sample `json:"series,omitempty"`
	// SeriesEvery is the downsampling stride applied when the run produced
	// more than seriesEmbedCap samples: the artifact keeps every
	// SeriesEvery-th sample plus the final one. 1 (or 0, in artifacts
	// predating the field) means every sample was kept. The live /series
	// endpoint always serves the full-resolution ring.
	SeriesEvery int `json:"series_every,omitempty"`
}

// seriesEmbedCap bounds how many time-series samples an artifact embeds.
// Long experiments at the default 200ms interval produce thousands of
// samples across many registries; checked-in baselines must stay diffable
// and a ~60-point curve preserves the longitudinal shape (rates, lag
// growth, batch warm-up) that the series exists to show.
const seriesEmbedCap = 60

// embedSeries downsamples a window to at most seriesEmbedCap+1 samples,
// keeping the final sample (the run's closing state) exactly.
func embedSeries(samples []series.Sample) (kept []series.Sample, stride int) {
	n := len(samples)
	if n <= seriesEmbedCap {
		return samples, 1
	}
	stride = (n + seriesEmbedCap - 1) / seriesEmbedCap
	kept = make([]series.Sample, 0, seriesEmbedCap+1)
	for i := 0; i < n; i += stride {
		kept = append(kept, samples[i])
	}
	if kept[len(kept)-1].Seq != samples[n-1].Seq {
		kept = append(kept, samples[n-1])
	}
	return kept, stride
}

// ArtifactConfig is the subset of Config that shaped the measurements
// (benchdiff warns when comparing runs with different configs).
type ArtifactConfig struct {
	Keys             int           `json:"keys"`
	ValueSize        int           `json:"value_size"`
	OpsPerThread     int           `json:"ops_per_thread"`
	Threads          int           `json:"threads"`
	FlushLatency     time.Duration `json:"flush_latency_ns"`
	FenceLatency     time.Duration `json:"fence_latency_ns"`
	ChainBatchOps    int           `json:"chain_batch_ops,omitempty"`
	ChainGroupCommit bool          `json:"chain_group_commit,omitempty"`
}

// Cell is one measured data point: an engine under a workload at a thread
// count (plus any experiment-specific parameters), with its throughput and
// latency percentiles. Cells with the same Key align across artifacts.
type Cell struct {
	Engine   string  `json:"engine"`
	Workload string  `json:"workload,omitempty"`
	Threads  int     `json:"threads,omitempty"`
	Alpha    float64 `json:"alpha,omitempty"`
	// Params carries experiment-specific dimensions (chainscale's replicas
	// and batch size, worstcase's object size) and derived per-op costs
	// (fences_per_op). Dimension keys participate in Key; derived metrics
	// (by convention suffixed _per_op, _ns, or _info) do not. The _info
	// suffix marks run-dependent observations — serve's calibrated offered
	// rate, its drain-audit counts — that would misalign cells across runs
	// if they keyed them.
	Params map[string]float64 `json:"params,omitempty"`

	OpsPerSec float64       `json:"ops_per_sec,omitempty"`
	Mean      time.Duration `json:"mean_ns,omitempty"`
	P50       time.Duration `json:"p50_ns,omitempty"`
	P90       time.Duration `json:"p90_ns,omitempty"`
	P99       time.Duration `json:"p99_ns,omitempty"`
	P999      time.Duration `json:"p999_ns,omitempty"`
	Max       time.Duration `json:"max_ns,omitempty"`
}

// withResult copies a Result's measurements into the cell.
func (c Cell) withResult(r Result) Cell {
	c.OpsPerSec = r.OpsPerSec
	c.Mean = r.Mean
	c.P50 = r.P50
	c.P90 = r.P90
	c.P99 = r.P99
	c.P999 = r.P999
	c.Max = r.Max
	return c
}

// Key identifies the cell for cross-run alignment: engine, workload,
// threads, alpha, and every dimension param (derived *_per_op / *_ns
// metrics excluded).
func (c Cell) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|t=%d", c.Engine, c.Workload, c.Threads)
	if c.Alpha != 0 {
		fmt.Fprintf(&b, "|a=%g", c.Alpha)
	}
	names := make([]string, 0, len(c.Params))
	for name := range c.Params {
		if strings.HasSuffix(name, "_per_op") || strings.HasSuffix(name, "_ns") ||
			strings.HasSuffix(name, "_info") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "|%s=%g", name, c.Params[name])
	}
	return b.String()
}

// cellRecorder accumulates cells from the measure functions; experiments
// run workers concurrently, so it locks.
type cellRecorder struct {
	mu    sync.Mutex
	cells []Cell
}

// recordCell appends one measured cell to the experiment's artifact, when
// one is being collected.
func (c Config) recordCell(cell Cell) {
	if c.art == nil {
		return
	}
	c.art.mu.Lock()
	c.art.cells = append(c.art.cells, cell)
	c.art.mu.Unlock()
}

// RunArtifact runs one experiment and captures its machine-readable
// artifact: it fills in the metrics hub and time-series sampler if the
// caller didn't provide them, brackets the run with samples so even
// sub-interval runs carry a curve, and collects cells, final registry
// snapshots, and the sample window. The experiment's human-readable report
// still goes to cfg.Out.
func RunArtifact(experiment string, run func(Config) error, cfg Config) (*Artifact, error) {
	cfg = cfg.WithDefaults()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewHub()
	}
	owned := cfg.Series == nil
	if owned {
		cfg.Series = series.New(cfg.Metrics, series.Options{})
	}
	cfg.art = &cellRecorder{}
	startSeq := cfg.Series.Total()
	cfg.Series.Start() // no-op when the caller already started it
	err := run(cfg)
	if owned {
		cfg.Series.Stop() // halts the ticker and takes the closing sample
	} else {
		cfg.Series.SampleNow() // close the window; the caller's sampler runs on
	}
	if err != nil {
		return nil, err
	}
	art := &Artifact{
		Schema:     ArtifactSchema,
		Experiment: experiment,
		Config: ArtifactConfig{
			Keys:             cfg.Keys,
			ValueSize:        cfg.ValueSize,
			OpsPerThread:     cfg.OpsPerThread,
			Threads:          cfg.Threads,
			FlushLatency:     cfg.FlushLatency,
			FenceLatency:     cfg.FenceLatency,
			ChainBatchOps:    cfg.ChainBatchOps,
			ChainGroupCommit: cfg.ChainGroupCommit,
		},
		Cells:      cfg.art.cells,
		Registries: cfg.agg.snapshots(),
	}
	art.Series, art.SeriesEvery = embedSeries(cfg.Series.Since(startSeq))
	return art, nil
}

// ArtifactFileName is the canonical artifact name for an experiment.
func ArtifactFileName(experiment string) string {
	return "BENCH_" + experiment + ".json"
}

// WriteArtifact serializes art into dir as BENCH_<experiment>.json,
// creating dir as needed. Output is byte-stable for identical inputs
// (encoding/json sorts map keys), so artifacts diff cleanly.
func WriteArtifact(dir string, art *Artifact) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	buf, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, ArtifactFileName(art.Experiment))
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadArtifact reads one BENCH_*.json file.
func LoadArtifact(path string) (*Artifact, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art Artifact
	if err := json.Unmarshal(buf, &art); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if art.Schema != ArtifactSchema {
		return nil, fmt.Errorf("%s: artifact schema %d, this build reads %d", path, art.Schema, ArtifactSchema)
	}
	return &art, nil
}
