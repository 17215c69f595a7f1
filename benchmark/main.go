// Command benchmark is the repository's gated benchmark: five workloads from
// kvstore.Update to a chain tail-ack, measured end to end with tracing off,
// plus a layer ladder and traced windows measured from outside the program.
// See README.md for the metrics, and ../BENCHMARK.json for the contract.
//
//	go run . -seed 1                                   every workload, both halves
//	go run . --workload serve-rate --seed 3 --seconds 10 --trace 0
//	go run . -compare baseline/seed1-a.json baseline/seed1-b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// runSeconds is BENCHMARK.json's run_seconds: the default of -seconds.
const runSeconds = 10

// resultFile is out/result.json.
type resultFile struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Host      string                     `json:"host"`
	Config    string                     `json:"config"`
	Workloads map[string]*workloadResult `json:"workloads"`
	// Ladder extras: report-only cross-checks between rungs.
	LadderExtras map[string]float64 `json:"ladder_extras,omitempty"`
}

const configNote = "kamino-simple, LogSlots 256, LogEntriesPerSlot 64, ApplierWorkers 2, fast (non-strict) regions; " +
	"1 KiB values, scrambled-Zipfian theta 0.99 keys; NVM latency flush 300ns/line + fence 500ns " +
	"injected by busy-spin, so device time is CPU time on this host"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed every input stream derives from")
	seconds := fs.Float64("seconds", runSeconds, "measured seconds per run, cut into 7 windows")
	trace := fs.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics (traced windows and ladder); default both")
	outDir := fs.String("out", "benchmark/out", "directory for result.json and trace-<workload>.json")
	compare := fs.Bool("compare", false, "compare two result.json files given as arguments; exit 1 on a regression")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printManifest:
		buf, err := manifest(runSeconds)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", buf)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	mode := modeBoth
	switch *trace {
	case 0:
		mode = modeEndToEnd
	case 1:
		mode = modeTraced
	case -1:
	default:
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	specs := workloads
	if *name != "all" {
		spec := findWorkload(*name)
		if spec == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		specs = []*workloadSpec{spec}
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	rf, err := measure(specs, *seed, *seconds, mode, fullSizes, *outDir, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return report(rf, specs, stdout)
}

// measure runs the workloads, then the ladder (once, if the mode is traced),
// and writes result.json.
func measure(specs []*workloadSpec, seed int64, seconds float64, mode runMode, sz sizes, outDir string, log io.Writer) (*resultFile, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rf := &resultFile{
		Seed: seed, Seconds: seconds, Config: configNote,
		Host:      fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		Workloads: map[string]*workloadResult{},
	}
	for _, spec := range specs {
		res, err := runWorkload(spec, seed, seconds, mode, sz, outDir, log)
		if err != nil {
			return nil, err
		}
		rf.Workloads[spec.name] = res
	}
	// The ladder runs after the workloads, which are best measured in a
	// process that has built nothing else yet. Its metrics fill in every
	// per-layer name a workload's own traced windows did not produce.
	if mode != modeEndToEnd {
		rec := newRecorder(clients) // its own shard, after the clients'
		l, err := runLadder(seed, sz, rec)
		if err != nil {
			return nil, err
		}
		rf.LadderExtras = l.extras
		for _, res := range rf.Workloads {
			for _, d := range perLayer {
				if _, ok := res.PerLayer[d.Name]; !ok {
					res.PerLayer[d.Name] = summarize(d.Unit, []float64{l.values[d.Name]})
				}
			}
		}
		if err := writeTrace(filepath.Join(outDir, "trace-ladder.json"), "ladder", seed, []*recorder{rec}); err != nil {
			return nil, err
		}
	}
	buf, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return nil, err
	}
	return rf, os.WriteFile(filepath.Join(outDir, "result.json"), append(buf, '\n'), 0o644)
}

// report prints every metric as `workload metric value unit`, then the
// one-line JSON result. It returns the exit code: non-zero when any output
// was wrong or any operation failed.
func report(rf *resultFile, specs []*workloadSpec, w io.Writer) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	fmt.Fprintf(w, "# %s\n# %s\n", rf.Host, rf.Config)
	for _, spec := range specs {
		res := rf.Workloads[spec.name]
		print := func(kind string, defs []metricDef, m map[string]summary) {
			for _, d := range defs {
				s, ok := m[d.Name]
				if !ok {
					continue
				}
				fmt.Fprintf(w, "%s %s %v %s  # %s, spread %.1f%% over %d windows\n",
					spec.name, d.Name, s.Value, s.Unit, kind, 100*s.spread(), len(s.Windows))
				key := d.Name
				if len(specs) > 1 {
					key = spec.name + "/" + d.Name
				}
				last.Metrics[key] = value{s.Value, s.Unit}
			}
		}
		print("end-to-end", endToEnd, res.EndToEnd)
		print("per-layer", perLayer, res.PerLayer)
		for _, name := range sortedNames(res.Extras) {
			s := res.Extras[name]
			if _, dup := res.PerLayer[reportPrefix+name]; dup {
				continue
			}
			fmt.Fprintf(w, "%s %s %v %s  # report-only\n", spec.name, name, s.Value, s.Unit)
		}
		for _, note := range res.Notes {
			fmt.Fprintf(w, "# %s: %s\n", spec.name, note)
		}
		fmt.Fprintf(w, "# %s: attempted %d, failed %d, correct %v\n", spec.name, res.Attempted, res.Failed, res.Correct)
		last.Attempted += res.Attempted
		last.Failed += res.Failed
		last.Correct = last.Correct && res.Correct
	}
	for _, name := range sortedNames(rf.LadderExtras) {
		fmt.Fprintf(w, "ladder %s %v ns  # report-only\n", name, rf.LadderExtras[name])
	}
	buf, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(w, err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", buf)
	if !last.Correct {
		return 1
	}
	return 0
}
