package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
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
