package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

func TestHealthAndReadyHandlers(t *testing.T) {
	rec := httptest.NewRecorder()
	HealthHandler(time.Now()).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz body %v", health)
	}

	ready, label := false, "recovering"
	h := ReadyStateHandler(func() (bool, string) { return ready, label })
	for _, want := range []struct {
		ready bool
		label string
		code  int
	}{{false, "recovering", 503}, {true, "ok", 200}, {false, "draining", 503}} {
		ready, label = want.ready, want.label
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		var doc struct {
			Ready bool   `json:"ready"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if rec.Code != want.code || doc.Ready != want.ready || doc.State != want.label {
			t.Fatalf("readyz while %s: status %d body %+v, want %d", want.label, rec.Code, doc, want.code)
		}
	}
}
