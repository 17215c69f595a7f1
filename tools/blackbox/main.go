// Command blackbox decodes NVM flight records — the black-box captures a
// pool persists into its image on crash (kamino.Options.Blackbox; a chain
// hands them out through Cluster.FlightRecords) — and prints a
// human-readable post-mortem: what triggered the capture, the obs
// counters at that instant, the replica's structured chain state, and
// the trace-event timeline of the process's final moments.
//
// Usage:
//
//	blackbox out/reboot-r0.json
//	blackbox -json out/*.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"kaminotx/internal/trace"
)

func main() {
	jsonOut := flag.Bool("json", false, "re-emit each record as indented JSON instead of the text post-mortem")
	tail := flag.Int("tail", 0, "print only the last N timeline events (0 = all)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: blackbox [-json] [-tail N] RECORD.json [RECORD.json ...]")
		os.Exit(2)
	}
	failed := false
	for i, path := range flag.Args() {
		if i > 0 {
			fmt.Println()
		}
		if flag.NArg() > 1 {
			fmt.Printf("== %s ==\n", path)
		}
		if err := decode(path, *jsonOut, *tail); err != nil {
			fmt.Fprintf(os.Stderr, "blackbox: %s: %v\n", path, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func decode(path string, jsonOut bool, tail int) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fr, err := trace.DecodeFlightRecord(raw)
	if err != nil {
		return err
	}
	if tail > 0 && len(fr.Events) > tail {
		fr.Dropped += uint64(len(fr.Events) - tail)
		fr.Events = fr.Events[len(fr.Events)-tail:]
	}
	if jsonOut {
		// Round-trip through the decoded struct (not the raw bytes) so
		// -tail trimming and version validation apply to this path too.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fr); err != nil {
			return err
		}
		_, err = os.Stdout.Write(buf.Bytes())
		return err
	}
	fr.WriteText(os.Stdout)
	return nil
}
