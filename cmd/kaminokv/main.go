// Command kaminokv is a small persistent key-value store CLI over the
// kamino heap: a smoke-testing and inspection tool for file-backed pools.
//
//	kaminokv -dir /tmp/db put 1 hello
//	kaminokv -dir /tmp/db get 1
//	kaminokv -dir /tmp/db scan 0 10
//	kaminokv -dir /tmp/db stats
//
// The first command against an empty directory creates the store (pick the
// engine with -mode). Data persists across invocations via checkpoints.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"kaminotx/internal/kvstore"
	"kaminotx/kamino"
)

func main() {
	var (
		dir  = flag.String("dir", "", "pool directory (required)")
		mode = flag.String("mode", string(kamino.ModeSimple), "engine for a new store: "+kamino.ModeNames())
		size = flag.Int("heap", 64<<20, "heap size for a new store")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: kaminokv -dir DIR [flags] COMMAND [args]\n\ncommands:\n"+
			"  put KEY VALUE     store a value\n"+
			"  get KEY           read a value\n"+
			"  del KEY           delete a key\n"+
			"  scan START N      list up to N pairs from START\n"+
			"  count             number of keys\n"+
			"  stats             engine statistics\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *dir == "" || flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	if err := checkMode(kamino.Mode(*mode)); err != nil {
		fatal(err)
	}
	pool, store, err := open(*dir, kamino.Mode(*mode), *size)
	if err != nil {
		fatal(err)
	}
	defer pool.Close()

	args := flag.Args()
	switch args[0] {
	case "put":
		need(args, 3)
		key := parseKey(args[1])
		if err := store.Insert(key, []byte(args[2])); err != nil {
			fatal(err)
		}
		fmt.Printf("put %d ok\n", key)
	case "get":
		need(args, 2)
		key := parseKey(args[1])
		v, ok, err := store.Read(key)
		if err != nil {
			fatal(err)
		}
		if !ok {
			fmt.Printf("%d: (not found)\n", key)
			os.Exit(1)
		}
		fmt.Printf("%d: %s\n", key, v)
	case "del":
		need(args, 2)
		key := parseKey(args[1])
		ok, err := store.Delete(key)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("del %d: found=%v\n", key, ok)
	case "scan":
		need(args, 3)
		start := parseKey(args[1])
		n, err := strconv.Atoi(args[2])
		if err != nil {
			fatal(err)
		}
		kvs, err := store.Scan(start, n)
		if err != nil {
			fatal(err)
		}
		for _, kv := range kvs {
			fmt.Printf("%d: %s\n", kv.Key, kv.Value)
		}
		fmt.Printf("(%d pairs)\n", len(kvs))
	case "count":
		n, err := store.Count()
		if err != nil {
			fatal(err)
		}
		fmt.Println(n)
	case "stats":
		s := pool.Stats()
		fmt.Printf("engine:                %s\n", pool.Mode())
		fmt.Printf("commits:               %d\n", s.Commits)
		fmt.Printf("aborts:                %d\n", s.Aborts)
		fmt.Printf("critical-path copies:  %d bytes\n", s.BytesCopiedCritical)
		fmt.Printf("async backup copies:   %d bytes\n", s.BytesCopiedAsync)
		fmt.Printf("dependent waits:       %d\n", s.DependentWaits)
		fmt.Printf("backup misses:         %d\n", s.BackupMisses)
		fmt.Printf("backup evictions:      %d\n", s.BackupEvictions)
		ns := pool.NVMStats()
		fmt.Printf("nvm flushes/fences:    %d / %d\n", ns.Flushes, ns.Fences)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func open(dir string, mode kamino.Mode, size int) (*kamino.Pool, *kvstore.Store, error) {
	if _, err := os.Stat(dir + "/pool.json"); err == nil {
		pool, err := kamino.Open(dir)
		if err != nil {
			return nil, nil, err
		}
		store, err := kvstore.Open(pool)
		if err != nil {
			pool.Close()
			return nil, nil, err
		}
		return pool, store, nil
	}
	pool, err := kamino.Create(kamino.Options{Mode: mode, HeapSize: size, Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	store, err := kvstore.Create(pool, 0)
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	return pool, store, nil
}

// checkMode rejects engines that cannot back a durable standalone store:
// nolog tears data on crash or abort, and inplace is the chain-replica
// engine, which cannot abort and needs a chain neighbour to recover
// incomplete transactions (package kamino/chain is that deployment).
func checkMode(mode kamino.Mode) error {
	switch mode {
	case kamino.ModeNoLog:
		return fmt.Errorf("mode %q is the unsafe benchmark baseline (crashes and aborts tear data); it cannot back a durable store", mode)
	case kamino.ModeInPlace:
		return fmt.Errorf("mode %q is the chain-replica engine (no abort, recovery needs a chain neighbour); it runs only inside a chain (package kamino/chain; see its Example)", mode)
	}
	return nil
}

func parseKey(s string) uint64 {
	k, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		fatal(fmt.Errorf("bad key %q: %w", s, err))
	}
	return k
}

func need(args []string, n int) {
	if len(args) != n {
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kaminokv:", err)
	os.Exit(1)
}
