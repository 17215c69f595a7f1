package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"kaminotx/internal/kvstore"
	"kaminotx/internal/obs"
	"kaminotx/internal/workload"
	"kaminotx/kamino"
)

// The durability passes are untimed. Each replays a seed-derived prefix of
// a workload-shaped op stream on a small instance, interrupts it the way the
// workload's boundary can be interrupted, and checks that every acknowledged
// put is still readable: a simulated power failure for the embedded store, a
// drain-close-reopen for the server, a tail reboot for the chain.

type durabilityResult struct {
	checked, bad uint64
	notes        []string
	// recovery holds the reopen's stage timings in ms (embedded pass).
	recovery map[string]float64
}

// replay applies n operations of a fresh single-writer stream to sys and
// returns the writer, whose acked map is the model.
func replay(sys system, seed int64, sz sizes, n int) (*client, error) {
	c := &client{
		stream: newOpStream(deriveSeed(seed, "durability", 0), 0, sz.durKeys, workload.MixA),
		acked:  make(map[uint64]uint32),
		val:    make([]byte, sz.valueSize),
	}
	for i := 0; i < n; i++ {
		o := c.stream.next()
		if !o.put {
			val, found, err := sys.get(o.key)
			if err != nil {
				return nil, fmt.Errorf("replay get %d: %w", o.key, err)
			}
			if !acceptable(o.key, val, found, []*client{c}) {
				return nil, fmt.Errorf("replay get %d: stale or torn value", o.key)
			}
			continue
		}
		fillValue(c.val, o.key, 0, o.seq)
		if err := sys.put(o.key, c.val); err != nil {
			return nil, fmt.Errorf("replay put %d: %w", o.key, err)
		}
		c.acked[o.key] = o.seq
	}
	return c, nil
}

// prefixLen derives how much of the stream is replayed before the
// interruption: between half and all of durOps.
func prefixLen(seed int64, sz sizes) int {
	return sz.durOps/2 + int(uint64(deriveSeed(seed, "crash-at", 0))%uint64(sz.durOps/2+1))
}

// readBackAll checks every key of the small store, written or not.
func readBackAll(get func(uint64) ([]byte, bool, error), keys int, c *client, either *op) (checked, bad uint64) {
	for k := uint64(0); k < uint64(keys); k++ {
		val, found, err := get(k)
		ok := err == nil && acceptable(k, val, found, []*client{c})
		if !ok && either != nil && k == either.key && err == nil && found {
			// The in-flight put may have landed whole.
			key, writer, seq, good := checkValue(val)
			ok = good && key == k && writer == 0 && seq == either.seq
		}
		checked++
		if !ok {
			bad++
		}
	}
	return checked, bad
}

// recoveryStages names the metric each stage of a reopen is reported under.
var recoveryStages = map[obs.Phase]string{
	obs.PhaseRecoveryRescan:      "recovery.rescan_ms",
	obs.PhaseRecoveryLogReplay:   "recovery.log_replay_ms",
	obs.PhaseRecoveryIndexAttach: "recovery.index_attach_ms",
}

// embedDurability crashes a strict pool with one transaction in flight.
func embedDurability(seed int64, sz sizes, _ string) (durabilityResult, error) {
	var res durabilityResult
	opts := poolOptions(sz, sz.durKeys)
	opts.Strict = true
	sys, err := newEmbed(opts, sz.durKeys, sz.valueSize)
	if err != nil {
		return res, err
	}
	defer sys.close()
	c, err := replay(sys, seed, sz, prefixLen(seed, sz))
	if err != nil {
		return res, err
	}

	// The stream's next put becomes the in-flight transaction: the power
	// fails from inside its read-modify-write callback, after the tree has
	// logged its write intents and before it writes. The goroutine then
	// exits without committing or aborting, as a dead process would.
	inflight := c.stream.nextPut()
	var crashErr error
	var reopen time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		sys.store.ReadModifyWrite(inflight.key, func([]byte, bool) ([]byte, error) {
			t0 := time.Now()
			crashErr = sys.pool.Crash()
			reopen = time.Since(t0)
			runtime.Goexit()
			return nil, nil
		})
		crashErr = errors.New("in-flight transaction was never reached")
	}()
	<-done
	if crashErr != nil {
		return res, fmt.Errorf("crash: %w", crashErr)
	}
	res.recovery = map[string]float64{"recovery.reopen_ms": float64(reopen) / 1e6}
	for _, st := range sys.pool.RecoveryReport() {
		if name := recoveryStages[st.Stage]; name != "" {
			res.recovery[name] += float64(st.Duration) / 1e6
		}
	}
	if sys.store, err = kvstore.Open(sys.pool); err != nil {
		return res, fmt.Errorf("reopen store: %w", err)
	}
	if err := sys.check(); err != nil {
		res.bad++
		res.notes = append(res.notes, "durability: invariants after crash: "+err.Error())
	}
	checked, bad := readBackAll(sys.get, sz.durKeys, c, &inflight)
	res.checked, res.bad = res.checked+checked, res.bad+bad
	return res, nil
}

// serveDurability runs the embedded crash pass, then the service's own
// boundary: acknowledged puts must survive drain, close and reopen from the
// checkpoint directory.
func serveDurability(seed int64, sz sizes, dir string) (durabilityResult, error) {
	res, err := embedDurability(seed, sz, dir)
	if err != nil {
		return res, err
	}
	ckpt, err := os.MkdirTemp(dir, "ckpt-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(ckpt)
	opts := poolOptions(sz, sz.durKeys)
	opts.Dir = filepath.Join(ckpt, "pool")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	addr := ln.Addr().String()
	sys, err := newServe(opts, sz.durKeys, sz.valueSize, ln, 1,
		func() (net.Conn, error) { return net.Dial("tcp", addr) })
	if err != nil {
		return res, err
	}
	c, err := replay(sys, seed, sz, prefixLen(seed, sz))
	if err != nil {
		sys.close()
		return res, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = sys.srv.Drain(ctx)
	cancel()
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, fmt.Errorf("drain and close: %w", err)
	}
	pool, err := kamino.Open(opts.Dir)
	if err != nil {
		return res, fmt.Errorf("reopen: %w", err)
	}
	defer pool.Close()
	store, err := kvstore.Open(pool)
	if err != nil {
		return res, fmt.Errorf("reopen store: %w", err)
	}
	tenants, err := kvstore.LoadTenants(store)
	if err != nil {
		return res, fmt.Errorf("reopen tenants: %w", err)
	}
	tenant, ok := tenants.Lookup("default")
	if !ok {
		return res, errors.New("reopen: default tenant lost")
	}
	checked, bad := readBackAll(tenant.Read, sz.durKeys, c, nil)
	res.checked, res.bad = res.checked+checked, res.bad+bad
	return res, nil
}

// chainDurability runs the embedded crash pass (each replica is such a
// pool), then power-cycles the tail of a strict chain and reads every
// acknowledged key back from it.
func chainDurability(seed int64, sz sizes, dir string) (durabilityResult, error) {
	res, err := embedDurability(seed, sz, dir)
	if err != nil {
		return res, err
	}
	opts := chainOptions(sz, sz.durKeys)
	opts.Strict = true
	sys, err := newChain(opts, sz.durKeys, sz.valueSize)
	if err != nil {
		return res, err
	}
	defer sys.close()
	c, err := replay(sys, seed, sz, prefixLen(seed, sz))
	if err != nil {
		return res, err
	}
	if err := sys.cl.RebootReplica(opts.Replicas - 1); err != nil {
		return res, fmt.Errorf("reboot tail: %w", err)
	}
	checked, bad := readBackAll(sys.get, sz.durKeys, c, nil)
	res.checked, res.bad = res.checked+checked, res.bad+bad
	if err := sys.check(); err != nil {
		res.bad++
		res.notes = append(res.notes, "durability: chain after reboot: "+err.Error())
	}
	return res, nil
}
