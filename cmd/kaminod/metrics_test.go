package main

import (
	"net"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"kaminotx/internal/obs"
	"kaminotx/internal/server"
	"kaminotx/kamino"
	"kaminotx/kamino/chain"
)

// TestMetricsMatchOperationsDoc: OPERATIONS.md's metric tables — the
// engine registry of a kamino-simple pool, the server registry and a chain
// replica's chain/<id> registry — name exactly the counters and gauges
// each exports, each under its kind. A row added, renamed or retired in
// one place and not the other fails here.
func TestMetricsMatchOperationsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	tables := metricTables(t, string(doc))

	// The engine registry as a restarted kaminod exports it: the reopen
	// adds the recovery gauges to what a first start has.
	dir := t.TempDir()
	opts := kamino.Options{HeapSize: 4 << 20, Dir: dir}
	pool, store, err := open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	first := exported(pool.Obs())
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	pool, store, err = open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	engine := exported(pool.Obs())
	for name := range first {
		if _, ok := engine[name]; !ok {
			t.Errorf("engine registry exports %s on a first start but not after a restart", name)
		}
	}
	compare(t, "engine", tables["engine"], engine)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New("server")
	srv, err := server.New(ln, server.Options{Store: store, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	compare(t, "server", tables["server"], exported(reg))

	cl, err := chain.New(chain.Options{Replicas: 2, HeapSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	compare(t, "chain/<id>", tables["chain/<id>"], exported(cl.Obs()[0]))
}

// exported maps each counter and gauge of r to its kind.
func exported(r *obs.Registry) map[string]string {
	s := r.Snapshot()
	out := make(map[string]string, len(s.Counters)+len(s.Gauges))
	for name := range s.Counters {
		out[name] = "counter"
	}
	for name := range s.Gauges {
		out[name] = "gauge"
	}
	return out
}

// metricTables reads every "| <registry> metric | kind | meaning |" table
// of OPERATIONS.md's Observability section into registry → name → kind.
// A row's first cell lists its names in backticks; a {a,b} group expands
// into one name per alternative.
func metricTables(t *testing.T, doc string) map[string]map[string]string {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n## Observability\n")
	if !ok {
		t.Fatal(`OPERATIONS.md has no "## Observability" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	header := regexp.MustCompile("^\\| (\\S+) metric \\| kind \\| meaning \\|$")
	row := regexp.MustCompile("^\\| (.+?) \\| (counter|gauge) \\| ")
	names := regexp.MustCompile("`([^`]+)`")
	tables := map[string]map[string]string{}
	var cur map[string]string
	for _, line := range strings.Split(section, "\n") {
		if m := header.FindStringSubmatch(line); m != nil {
			cur = map[string]string{}
			tables[m[1]] = cur
			continue
		}
		if !strings.HasPrefix(line, "|") {
			cur = nil
		}
		if cur == nil || strings.HasPrefix(line, "|---") {
			continue
		}
		m := row.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("OPERATIONS.md metric row without a counter or gauge kind: %s", line)
			continue
		}
		for _, n := range names.FindAllStringSubmatch(m[1], -1) {
			for _, name := range expand(n[1]) {
				cur[name] = m[2]
			}
		}
	}
	for _, reg := range []string{"engine", "server", "chain/<id>"} {
		if len(tables[reg]) == 0 {
			t.Fatalf("OPERATIONS.md has no %q metric table", reg)
		}
	}
	return tables
}

// expand replaces the first {a,b,...} group of s by each alternative in
// turn, recursively.
func expand(s string) []string {
	i := strings.Index(s, "{")
	j := strings.Index(s, "}")
	if i < 0 || j < i {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[i+1:j], ",") {
		out = append(out, expand(s[:i]+alt+s[j+1:])...)
	}
	return out
}

// compare reports every name the registry exports that the table omits or
// files under another kind, and every name the table lists that the
// registry does not export.
func compare(t *testing.T, reg string, documented, exported map[string]string) {
	t.Helper()
	var names []string
	for name := range exported {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch kind, ok := documented[name]; {
		case !ok:
			t.Errorf("the %s registry exports %s %s, but OPERATIONS.md's table omits it", reg, exported[name], name)
		case kind != exported[name]:
			t.Errorf("OPERATIONS.md files %s as a %s; the %s registry exports it as a %s", name, kind, reg, exported[name])
		}
	}
	for name := range documented {
		if _, ok := exported[name]; !ok {
			t.Errorf("OPERATIONS.md's %s table names %s, but the registry does not export it", reg, name)
		}
	}
}
