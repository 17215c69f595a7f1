package obs

import (
	"encoding/json"
	"net/http"
	"time"
)

// HealthHandler serves a liveness document: the process is up and its
// serving loop responds. start anchors the reported uptime.
func HealthHandler(start time.Time) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"uptime_s": int64(time.Since(start).Seconds()),
		})
	})
}

// ReadyStateHandler serves a readiness document with a named state: 200
// when state() reports ready, 503 otherwise, and the label explains a 503 —
// "recovering" while the pool replays and rebuilds indexes, "draining"
// during shutdown, "ok" when ready. Load balancers key on the status code;
// operators key on the label.
func ReadyStateHandler(state func() (bool, string)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ok, label := true, "ok"
		if state != nil {
			ok, label = state()
		}
		code := http.StatusOK
		if !ok {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, map[string]any{"ready": ok, "state": label})
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
