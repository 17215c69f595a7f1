package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteJSONL writes one event per line as JSON (the stable machine
// format; `jq` friendly).
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one entry of the Chrome trace_event format
// (chrome://tracing, Perfetto's "Open trace file"). Timestamps are
// microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   uint64         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes the stream in Chrome trace_event JSON: one pid per
// actor (engine instance, region, or chain replica; named via
// process_name metadata), one tid per engine transaction, served request
// or chain record (a chain event's lane is its sequence number, a batch's
// its last), KindSpan events as complete ("X") slices over the obs phase
// vocabulary, and everything else as instants ("i").
func WriteChrome(w io.Writer, events []Event) error {
	pids := map[string]int{}
	var actors []string
	pidOf := func(actor string) int {
		if id, ok := pids[actor]; ok {
			return id
		}
		id := len(pids) + 1
		pids[actor] = id
		actors = append(actors, actor)
		return id
	}

	out := chromeFile{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	for _, e := range events {
		pid := pidOf(e.Actor)
		tid := e.TxID
		switch {
		case e.Kind >= KindChainForward && e.Kind <= KindChainAck:
			tid = e.Obj
		case tid == 0:
			tid = e.Trace
		}
		us := float64(e.At) / 1e3
		args := map[string]any{"seq": e.Seq}
		if e.Obj != 0 {
			args["obj"] = e.Obj
		}
		if e.Len != 0 {
			args["off"] = e.Off
			args["len"] = e.Len
		}
		if e.Trace != 0 {
			args["trace"] = fmt.Sprintf("%#x", e.Trace)
		}
		if e.Kind == KindSpan {
			dur := float64(e.Dur) / 1e3
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Phase, Phase: "X", TS: us - dur, Dur: dur,
				PID: pid, TID: tid, Args: args,
			})
			continue
		}
		name := e.Kind.String()
		if e.Kind == KindIntentAppend && e.Phase != "" {
			name += ":" + e.Phase
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: name, Phase: "i", TS: us, PID: pid, TID: tid,
			Scope: "t", Args: args,
		})
	}

	// Name the processes so the trace viewer shows actor labels, and
	// keep metadata order deterministic.
	sort.Strings(actors)
	meta := make([]chromeEvent, 0, len(actors))
	for _, a := range actors {
		meta = append(meta, chromeEvent{
			Name: "process_name", Phase: "M", PID: pids[a], TID: 0,
			Args: map[string]any{"name": a},
		})
	}
	out.TraceEvents = append(meta, out.TraceEvents...)

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
