package trace

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Handler serves the recorder's most recent events as JSON:
//
//	GET /trace        -> last 250 events
//	GET /trace?n=2000 -> last 2000 events
//
// The reply is {"total": N, "dropped": N, "events": [...]}.
func Handler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 250
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "trace: bad n parameter", http.StatusBadRequest)
				return
			}
			n = v
		}
		events := []Event{}
		if n > 0 {
			events = rec.Tail(n)
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Total   uint64  `json:"total"`
			Dropped uint64  `json:"dropped"`
			Events  []Event `json:"events"`
		}{rec.Total(), rec.Dropped(), events})
	})
}
