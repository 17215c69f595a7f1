package main

import (
	"flag"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"kaminotx/internal/obs"
	"kaminotx/internal/server"
)

// TestFlagsMatchOperationsDoc: OPERATIONS.md's kaminod flag table names
// exactly the flags the command defines — a flag added, renamed or retired
// in one place and not the other fails here.
func TestFlagsMatchOperationsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	// The table is the one under "### Flags", up to the next heading.
	_, section, ok := strings.Cut(string(doc), "\n### Flags\n")
	if !ok {
		t.Fatal(`OPERATIONS.md has no "### Flags" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\|").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("no flag rows found in OPERATIONS.md's flag table")
	}

	fs := flag.NewFlagSet("kaminod", flag.ContinueOnError)
	defineFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			t.Errorf("kaminod defines -%s but OPERATIONS.md's flag table omits it", f.Name)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("OPERATIONS.md's flag table names -%s but kaminod does not define it", name)
	}
}

// TestEndpointsMatchOperationsDoc: OPERATIONS.md's Observability list names
// exactly the patterns the metrics mux registers — a route cannot come back
// undocumented, nor a documented one vanish. A pattern under a documented
// subtree (pprof's fixed sub-paths under /debug/pprof/) counts as
// documented. The registries have one rendering, so / must answer 404.
func TestEndpointsMatchOperationsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Observability\n")
	if !ok {
		t.Fatal(`OPERATIONS.md has no "## Observability" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^- `(/[^`]*)`").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = false
	}
	if len(documented) == 0 {
		t.Fatal("no endpoint bullets found in OPERATIONS.md's Observability section")
	}

	var srv atomic.Pointer[server.Server]
	mux, patterns := metricsMux(obs.NewHub(), func() (bool, string) { return true, "ok" }, &srv)
	for _, p := range patterns {
		covered := false
		for d := range documented {
			if p == d {
				documented[d] = true
			}
			covered = covered || p == d || (strings.HasSuffix(d, "/") && strings.HasPrefix(p, d))
		}
		if !covered {
			t.Errorf("kaminod serves %s but OPERATIONS.md's Observability list omits it", p)
		}
	}
	for d, registered := range documented {
		if !registered {
			t.Errorf("OPERATIONS.md's Observability list names %s but kaminod does not serve it", d)
		}
	}

	for target, want := range map[string]int{"/": 404, "/metrics": 200, "/readyz": 200, "/debug/requests": 503} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != want {
			t.Errorf("GET %s = %d, want %d", target, rec.Code, want)
		}
	}
}
