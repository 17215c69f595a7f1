package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Spans are recorded by the benchmark, around its calls into each layer;
// nothing inside the program under test is instrumented. A span's times are
// nanoseconds since the process's epoch.

var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder is one goroutine's span buffer: a ring that keeps the most recent
// spans, so recording costs the same however long the window runs. Ids are
// unique across recorders (the shard number sits in the top byte).
type recorder struct {
	shard uint64
	ring  []span
	n     uint64
}

// spanRing bounds each recorder (2 MB) and with it the trace files.
const spanRing = 1 << 15

func newRecorder(shard int) *recorder {
	return &recorder{shard: uint64(shard+1) << 56, ring: make([]span, spanRing)}
}

// add records one finished span and returns its id. A nil recorder (tracing
// off) records nothing.
func (r *recorder) add(parent, req uint64, name string, start, end int64) uint64 {
	if r == nil {
		return 0
	}
	r.n++
	id := r.shard | r.n
	r.ring[r.n%uint64(len(r.ring))] = span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end}
	return id
}

// spans returns what the ring still holds, oldest first, and how many
// earlier spans it overwrote.
func (r *recorder) spans() (kept []span, dropped uint64) {
	size := uint64(len(r.ring))
	first := uint64(1)
	if r.n > size {
		first = r.n - size + 1
	}
	for i := first; i <= r.n; i++ {
		kept = append(kept, r.ring[i%size])
	}
	return kept, first - 1
}

// selfTimes maps each span to its self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  uint64 `json:"dropped"`
	Spans    []span `json:"spans"`
}

func writeTrace(path, workload string, seed int64, recs []*recorder) error {
	tf := traceFile{Workload: workload, Seed: seed}
	for _, r := range recs {
		kept, dropped := r.spans()
		tf.Spans = append(tf.Spans, kept...)
		tf.Dropped += dropped
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(&tf); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
