package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestResolve(t *testing.T) {
	var all []string
	for _, e := range experiments {
		all = append(all, e.name)
	}
	for _, tc := range []struct {
		arg     string
		want    []string
		wantErr string // substring of the error; "" means no error
	}{
		{arg: "all", want: all},
		{arg: "fig12", want: []string{"fig12"}},
		{arg: "chainscale,fig12,table1", want: []string{"fig12", "table1", "chainscale"}}, // index order
		{arg: " Fig12 ,WORSTCASE", want: []string{"fig12", "worstcase"}},
		{arg: "fig12,fig12", want: []string{"fig12"}},
		{arg: "fig12,all", want: all},
		{arg: "fig12,chaoss,table1", wantErr: `"chaoss"`},
		{arg: "serve", wantErr: `"serve"`}, // retired: benchmark/ serve-rate and serve-peak
		{arg: "", wantErr: `""`},
		{arg: "fig12,", wantErr: `""`},
	} {
		got, err := resolve(tc.arg)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("resolve(%q) error = %v, want one naming %s", tc.arg, err, tc.wantErr)
			}
			if got != nil {
				t.Errorf("resolve(%q) selected %d experiments alongside its error", tc.arg, len(got))
			}
			continue
		}
		if err != nil {
			t.Errorf("resolve(%q): %v", tc.arg, err)
			continue
		}
		var names []string
		for _, e := range got {
			names = append(names, e.name)
		}
		if strings.Join(names, ",") != strings.Join(tc.want, ",") {
			t.Errorf("resolve(%q) = %v, want %v", tc.arg, names, tc.want)
		}
	}
	if len(experiments) != 13 {
		t.Errorf("the index holds %d experiments, want the paper's thirteen", len(experiments))
	}
}

// documents are the Markdown files a reader runs kaminobench from.
// CHANGES.md and ROADMAP.md are history: they keep the flags of their day.
var documents = []string{
	"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md", "OPERATIONS.md", "benchmark/README.md",
}

// docFlag is a flag token: a dash and a lower-case name, after a space, a
// slash, a parenthesis or a backtick (so "-batch-ops/-fence" names two).
var docFlag = regexp.MustCompile("(?:^|[\\s/(`])-([a-z][a-z0-9-]*)")

// docUnits cuts Markdown into the units a flag is read in: a line of a
// fenced code block (continued by a trailing backslash), a table row, or a
// prose paragraph. Each unit comes with the line it starts on.
func docUnits(text string) (units []string, starts []int) {
	lines := strings.Split(text, "\n")
	inCode := false
	para, paraStart := "", 0
	flush := func() {
		if para != "" {
			units, starts = append(units, para), append(starts, paraStart)
		}
		para = ""
	}
	for i := 0; i < len(lines); i++ {
		start, line := i+1, lines[i]
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "```"):
			flush()
			inCode = !inCode
		case inCode:
			for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(line, "\\") + " " + lines[i]
			}
			units, starts = append(units, line), append(starts, start)
		case trimmed == "":
			flush()
		case strings.HasPrefix(trimmed, "|"):
			flush()
			units, starts = append(units, line), append(starts, start)
		default:
			if para == "" {
				paraStart = start
			}
			para += " " + line
		}
	}
	flush()
	return units, starts
}

// TestDocumentedFlagsExist: every -flag that follows a mention of
// kaminobench in a unit of the documents (docUnits) names a flag
// defineFlags registers — a flag retired in the command and not in the
// prose fails here.
func TestDocumentedFlagsExist(t *testing.T) {
	fs := flag.NewFlagSet("kaminobench", flag.ContinueOnError)
	defineFlags(fs)
	checked := 0
	for _, doc := range documents {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		units, starts := docUnits(string(b))
		for i, unit := range units {
			for _, after := range strings.Split(unit, "kaminobench")[1:] {
				for _, m := range docFlag.FindAllStringSubmatch(after, -1) {
					checked++
					if fs.Lookup(m[1]) == nil {
						t.Errorf("%s:%d names kaminobench -%s, which kaminobench does not define", doc, starts[i], m[1])
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no kaminobench flags found in the documents")
	}
}
