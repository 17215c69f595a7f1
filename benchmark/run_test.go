package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// smokeSizes shrinks every scale so the whole benchmark runs in seconds.
var smokeSizes = sizes{
	keys:          1000,
	chainKeys:     500,
	durKeys:       200,
	durOps:        120,
	ladderKeys:    500,
	ladderN:       64,
	engineObjects: 256,
	valueSize:     1024,
	setups:        2,
	rate:          2000,
	flush:         300 * time.Nanosecond,
	fence:         500 * time.Nanosecond,
}

type manifestFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readManifest(t *testing.T) manifestFile {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifestFile
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesTables: BENCHMARK.json is exactly what the metric
// tables define, and stays inside the contract's limits.
func TestManifestMatchesTables(t *testing.T) {
	want, err := manifest(runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(got)) != string(want) {
		t.Error("BENCHMARK.json differs from `go run . -manifest`")
	}
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, spec is %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	setup := false
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(m.EndToEnd), len(m.PerLayer))
	}
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("bad or repeated metric %+v", d)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every workload, both halves, for 0.1 s windows on tiny
// sizes, and checks that each metric BENCHMARK.json names is printed exactly
// once per workload with its unit, that the outputs verify, and that the
// durability passes and the traces are there.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	rf, err := measure(workloads, 11, 0.7, modeBoth, smokeSizes, dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := report(rf, workloads, &out); code != 0 {
		t.Fatalf("report exit code %d:\n%s", code, out.String())
	}
	printed := map[string]int{}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, line := range lines {
		if f := strings.Fields(line); len(f) >= 4 && !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "{") {
			printed[f[0]+" "+f[1]+" "+f[3]]++
		}
	}
	m := readManifest(t)
	for _, w := range m.Workloads {
		res := rf.Workloads[w.Name]
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v attempted %d failed %d notes %v", w.Name, res.Correct, res.Attempted, res.Failed, res.Notes)
		}
		for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
			if n := printed[w.Name+" "+d.Name+" "+d.Unit]; n != 1 {
				t.Errorf("%s %s [%s] printed %d times", w.Name, d.Name, d.Unit, n)
			}
		}
		for _, d := range m.EndToEnd {
			if res.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s %s = %v; end-to-end metrics are never 0", w.Name, d.Name, res.EndToEnd[d.Name].Value)
			}
		}
		if _, err := os.Stat(dir + "/trace-" + w.Name + ".json"); err != nil {
			t.Error(err)
		}
	}
	var last struct {
		Correct   bool
		Attempted uint64
		Failed    uint64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.Correct || last.Attempted == 0 {
		t.Errorf("last line %q: %v", lines[len(lines)-1], err)
	}

	// The serve traces tile: client.req = its server children + net_queue.
	for _, name := range []string{"serve-rate", "serve-peak"} {
		buf, err := os.ReadFile(dir + "/trace-" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(buf, &tf); err != nil {
			t.Fatal(err)
		}
		self := selfTimes(tf.Spans)
		var root, kids, own float64
		for _, s := range tf.Spans {
			switch {
			case s.Name == "client.req":
				root += float64(s.End - s.Start)
				own += float64(self[s.ID])
			case s.Parent != 0:
				kids += float64(s.End - s.Start)
			}
		}
		if root == 0 || kids == 0 {
			t.Errorf("%s trace has no client.req spans with children", name)
		}
		if diff := (root - kids - own) / root; diff > 0.01 || diff < -0.01 {
			t.Errorf("%s trace does not tile: root %v != children %v + self %v", name, root, kids, own)
		}
	}
}

// TestLadderCountsRepeat: the ladder's counts are exact, so two passes on
// one seed must agree to the last digit.
func TestLadderCountsRepeat(t *testing.T) {
	a, err := runLadder(5, smokeSizes, newRecorder(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runLadder(5, smokeSizes, newRecorder(0))
	if err != nil {
		t.Fatal(err)
	}
	counts := 0
	for _, d := range perLayer {
		if _, ok := a.values[d.Name]; !ok {
			continue
		}
		exact := strings.Contains(d.Name, "fences_per_") || strings.HasSuffix(d.Name, "lines_flushed_per_put") ||
			strings.HasSuffix(d.Name, "bytes_written_per_put") || strings.HasSuffix(d.Name, "crit_copy_bytes_per_tx") ||
			d.Name == "kvwire.wire_bytes_per_put"
		if !exact || d.Name == "window.fences_per_put" {
			continue
		}
		counts++
		if a.values[d.Name] != b.values[d.Name] {
			t.Errorf("%s: %v then %v", d.Name, a.values[d.Name], b.values[d.Name])
		}
	}
	if counts < 12 {
		t.Errorf("only %d count metrics compared", counts)
	}
}
