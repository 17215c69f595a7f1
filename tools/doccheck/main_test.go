package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheck(t *testing.T) {
	// docs lays the documents out in a fresh directory, each well under
	// its ceiling unless edit says otherwise.
	docs := func(edit func(name string, ceiling int) string) string {
		dir := t.TempDir()
		for _, d := range documents {
			if err := os.WriteFile(filepath.Join(dir, d.name), []byte(edit(d.name, d.ceiling)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	for _, tc := range []struct {
		name  string
		repo  string
		roots []string
		want  string // a substring of the one violation expected; "" for none
	}{
		{
			name: "document one byte over its ceiling",
			repo: docs(func(name string, ceiling int) string {
				if name == "DESIGN.md" {
					return strings.Repeat("x", ceiling+1)
				}
				return "# " + name + "\n"
			}),
			want: "DESIGN.md: ",
		},
		{
			name: "go run of a missing path",
			repo: docs(func(name string, _ int) string {
				if name == "README.md" {
					return "# README\n\n```sh\ngo test ./...\ngo run ./examples/quickstart   # gone\n```\n"
				}
				return "# " + name + "\n"
			}),
			want: "README.md:5: go run names ./examples/quickstart",
		},
		{
			name:  "the repository as it stands",
			repo:  filepath.Join("..", ".."),
			roots: []string{"cmd", "internal", "kamino", "tools"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := check(tc.repo, tc.roots)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.want == "" && len(got) != 0:
				t.Errorf("violations: %q, want none", got)
			case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)):
				t.Errorf("violations: %q, want one containing %q", got, tc.want)
			}
		})
	}
}
