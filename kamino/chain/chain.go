// Package chain is the public face of the replicated store: Kamino-Tx-Chain
// (paper §5) and traditional chain replication over the kamino persistent
// heap. A Cluster bundles the membership manager, an in-process transport
// with configurable hop latency, and the replicas of one chain; the KV
// methods run replicated operations through the head.
//
// Every replica of a Cluster lives in this process: the one transport
// (internal/transport) is in-process, its hop latency standing in for the
// paper's network. The facade targets embedding, tests, and the benchmark
// harness; a chain spanning real processes would need a transport.Transport
// this repository does not have.
package chain

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	ichain "kaminotx/internal/chain"
	"kaminotx/internal/membership"
	"kaminotx/internal/obs"
	"kaminotx/internal/trace"
	"kaminotx/internal/transport"
)

// Mode selects the replication scheme.
type Mode = ichain.Mode

// Replication modes.
const (
	// ModeKamino is Kamino-Tx-Chain: in-place updates at every replica,
	// a backup only at the head, f+2 replicas to tolerate f failures.
	ModeKamino = ichain.ModeKamino
	// ModeTraditional is classic chain replication: undo-logged copies
	// in the critical path at every replica, f+1 replicas.
	ModeTraditional = ichain.ModeTraditional
)

// Options configures a Cluster.
type Options struct {
	// Mode selects the replication scheme. Default ModeKamino.
	Mode Mode
	// Replicas is the chain length. For ModeKamino, tolerate f failures
	// with f+2 replicas; for ModeTraditional, f+1. Default 3.
	Replicas int
	// HeapSize per replica. Default 64 MiB.
	HeapSize int
	// Alpha sizes the head's backup (ModeKamino): >= 1 full mirror,
	// < 1 dynamic partial backup. Default 1.
	Alpha float64
	// HopLatency is the simulated network latency per message hop.
	HopLatency time.Duration
	// FlushLatency / FenceLatency model the persist costs of each
	// replica's simulated NVM — pool and protocol queues alike (see
	// kamino.Options). Zero makes persists free.
	FlushLatency time.Duration
	FenceLatency time.Duration
	// Strict enables crash simulation (required by Reboot).
	Strict bool
	// BatchOps caps how many operations one chain hop coalesces into a
	// single message and a single persistent-queue flush+fence epoch. A
	// batch is whatever has already queued, up to BatchOps operations or
	// 256 KiB of arguments; nothing waits for it to fill. Default 1:
	// batches of one.
	BatchOps int
	// Trace, when non-nil, records every replica's chain protocol
	// events and local engine events; head-minted trace ids correlate
	// one transaction across the whole chain.
	Trace *trace.Recorder
	// RetryWindow bounds how long the KV methods retry through view
	// changes (failed head, repairing chain) before surfacing the
	// redirect error to the caller. Default 5s; negative disables
	// retries entirely.
	RetryWindow time.Duration
}

// Cluster is one replicated KV chain living in this process.
type Cluster struct {
	tr  *transport.InProc
	mgr *membership.Manager

	// mu guards replicas and nextID: clients resolve the head, chaos
	// schedules kill/rejoin replicas, and Obs/Err scan the map — all
	// concurrently.
	mu       sync.RWMutex
	replicas map[transport.NodeID]*ichain.Replica
	nextID   int

	order  []transport.NodeID
	client *ichain.KVClient
	cfg    ichain.Config // template shared by New and AddReplica
	retry  time.Duration
}

// New builds and starts a cluster.
func New(opts Options) (*Cluster, error) {
	if opts.Replicas == 0 {
		opts.Replicas = 3
	}
	if opts.Replicas < 2 {
		return nil, fmt.Errorf("chain: need at least 2 replicas, got %d", opts.Replicas)
	}
	if opts.Alpha == 0 {
		opts.Alpha = 1
	}
	tr := transport.NewInProc(opts.HopLatency)
	ids := make([]transport.NodeID, opts.Replicas)
	for i := range ids {
		ids[i] = transport.NodeID(fmt.Sprintf("replica-%d", i))
	}
	mgr, err := membership.New(ids)
	if err != nil {
		return nil, err
	}
	reg := ichain.NewKVRegistry()
	retry := opts.RetryWindow
	if retry == 0 {
		retry = 5 * time.Second
	}
	c := &Cluster{
		tr: tr, mgr: mgr,
		replicas: make(map[transport.NodeID]*ichain.Replica),
		nextID:   opts.Replicas,
		order:    ids,
		retry:    retry,
		cfg: ichain.Config{
			Mode:         opts.Mode,
			HeapSize:     opts.HeapSize,
			Alpha:        opts.Alpha,
			FlushLatency: opts.FlushLatency,
			FenceLatency: opts.FenceLatency,
			Strict:       opts.Strict,
			BatchOps:     opts.BatchOps,
			Registry:     reg,
			Transport:    tr,
			Manager:      mgr,
			Setup:        ichain.KVSetup,
			Trace:        opts.Trace,
		},
	}
	for _, id := range ids {
		rep, err := ichain.NewReplica(id, c.cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.replicas[id] = rep
	}
	c.client = ichain.NewKVClient(func() *ichain.Replica {
		head := mgr.View().Head()
		c.mu.RLock()
		defer c.mu.RUnlock()
		return c.replicas[head]
	})
	return c, nil
}

// retriable reports errors worth retrying across a view change: the head
// moved (redirect), the chain has no resolvable head yet, or a message hit
// a just-removed node.
func retriable(err error) bool {
	return errors.Is(err, ichain.ErrNotHead) || errors.Is(err, transport.ErrUnknownNode)
}

// withRetry re-runs op through transient view-change errors until the
// cluster's retry window expires. Operations are idempotent (registered KV
// writes; tail reads), so re-running one that may already have committed
// is safe.
func (c *Cluster) withRetry(op func() error) error {
	deadline := time.Now().Add(c.retry)
	for {
		err := op()
		if err == nil || !retriable(err) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Put stores key=val through the chain; it returns once the tail has
// acknowledged (the operation is then durable on every replica). Redirects
// from a failed-over head are retried within Options.RetryWindow.
func (c *Cluster) Put(key uint64, val []byte) error {
	return c.withRetry(func() error { return c.client.Put(key, val) })
}

// Get reads key at the tail (linearizable with respect to completed Puts).
func (c *Cluster) Get(key uint64) (val []byte, ok bool, err error) {
	err = c.withRetry(func() error {
		val, ok, err = c.client.Get(key)
		return err
	})
	return val, ok, err
}

// Delete removes key through the chain.
func (c *Cluster) Delete(key uint64) error {
	return c.withRetry(func() error { return c.client.Delete(key) })
}

// Members returns the current chain membership, head first.
func (c *Cluster) Members() []string {
	v := c.mgr.View()
	out := make([]string, len(v.Members))
	for i, m := range v.Members {
		out[i] = string(m)
	}
	return out
}

// Obs returns the live observability registries of the cluster, head first
// in current chain order: for each replica its chain-protocol registry
// ("chain/<id>": forward/ack/cleanup/dedup/fetch/resend counters) followed
// by its engine registry (phase latencies, engine counters, NVM gauges).
func (c *Cluster) Obs() []*obs.Registry {
	v := c.mgr.View()
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*obs.Registry
	for _, id := range v.Members {
		rep, ok := c.replicas[id]
		if !ok {
			continue
		}
		out = append(out, rep.Obs(), rep.Pool().Obs())
	}
	return out
}

// ReplicaDebug pairs one live replica's identity and chain role with its
// structured debug state.
type ReplicaDebug struct {
	ID   string           `json:"id"`
	Role string           `json:"role"`
	Info ichain.DebugInfo `json:"info"`
}

// DebugInfos samples every live replica's structured repair-relevant
// state (execution floor, queue spans, admission-lock table), in current
// chain order. Safe to call while replicas are killed, rejoined or
// rebooted: a rebooting replica reports its pre-crash ring or its
// recovered one. The chaos schedule samples it through every repair.
func (c *Cluster) DebugInfos() []ReplicaDebug {
	v := c.mgr.View()
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []ReplicaDebug
	for i, id := range v.Members {
		rep, ok := c.replicas[id]
		if !ok {
			continue
		}
		role := "middle"
		switch {
		case i == 0:
			role = "head"
		case i == len(v.Members)-1:
			role = "tail"
		}
		out = append(out, ReplicaDebug{ID: string(id), Role: role, Info: rep.DebugInfo()})
	}
	return out
}

// DebugState returns one line per live replica, in chain order,
// summarizing its repair-relevant state (execution floor, queue spans,
// admission-lock table). Intended for wedge diagnostics: when client
// progress stalls, the output names the replica holding a leaked lock.
func (c *Cluster) DebugState() string {
	var b strings.Builder
	for _, rd := range c.DebugInfos() {
		fmt.Fprintf(&b, "%s (%s): %s\n", rd.ID, rd.Role, rd.Info)
	}
	return b.String()
}

// QueueStat reports, in bytes, the occupancy and high-water marks of the two
// ranges of one replica's persistent ring — pending input and in-flight —
// and the ring's capacity, which the two share (InputCap == InflightCap).
type QueueStat struct {
	ID            string `json:"id"`
	InputBytes    uint64 `json:"input_bytes"`
	InputHigh     uint64 `json:"input_high"`
	InputCap      uint64 `json:"input_cap"`
	InflightBytes uint64 `json:"inflight_bytes"`
	InflightHigh  uint64 `json:"inflight_high"`
	InflightCap   uint64 `json:"inflight_cap"`
}

// QueueStats returns the live replicas' queue occupancy in current chain
// order, and is as safe against repair as DebugInfos. The chaos schedule
// requires every ring to drain to empty once its clients stop: the
// acknowledged-prefix truncation keeps working through failures.
func (c *Cluster) QueueStats() []QueueStat {
	v := c.mgr.View()
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []QueueStat
	for _, id := range v.Members {
		rep, ok := c.replicas[id]
		if !ok {
			continue
		}
		in, fl, capacity := rep.QueueUsage()
		out = append(out, QueueStat{
			ID: string(id), InputBytes: in.Bytes, InputHigh: in.HighWater,
			InflightBytes: fl.Bytes, InflightHigh: fl.HighWater,
			InputCap: capacity, InflightCap: capacity,
		})
	}
	return out
}

// AddReplica builds a fresh replica, catches it up by state transfer from
// the chain's current tail (writes stall during the copy), and joins it to
// the chain as the new tail. It returns the new replica's member id.
func (c *Cluster) AddReplica() (string, error) {
	c.mu.Lock()
	id := transport.NodeID(fmt.Sprintf("replica-%d", c.nextID))
	c.nextID++
	c.mu.Unlock()
	rep, err := ichain.JoinAsTail(id, c.cfg)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.replicas[id] = rep
	c.mu.Unlock()
	return string(id), nil
}

// KillReplica fail-stops a replica (by current chain position) and repairs
// the chain, as the membership service would after detecting the failure.
func (c *Cluster) KillReplica(position int) error {
	v := c.mgr.View()
	if position < 0 || position >= len(v.Members) {
		return fmt.Errorf("chain: position %d out of range", position)
	}
	id := v.Members[position]
	c.tr.Unregister(id)
	if _, err := c.mgr.ReportFailure(id); err != nil {
		return err
	}
	c.mu.Lock()
	rep := c.replicas[id]
	delete(c.replicas, id)
	c.mu.Unlock()
	if rep == nil {
		return nil
	}
	return rep.Close()
}

// RebootReplica power-cycles a replica (by current chain position) through
// the paper's quick-reboot protocol (§5.3). Requires Options.Strict.
func (c *Cluster) RebootReplica(position int) error {
	v := c.mgr.View()
	if position < 0 || position >= len(v.Members) {
		return fmt.Errorf("chain: position %d out of range", position)
	}
	c.mu.RLock()
	rep := c.replicas[v.Members[position]]
	c.mu.RUnlock()
	if rep == nil {
		return fmt.Errorf("chain: no live replica at position %d", position)
	}
	return rep.Reboot()
}

// Err surfaces the first fatal replica error, if any.
func (c *Cluster) Err() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, rep := range c.replicas {
		if err := rep.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the cluster down.
func (c *Cluster) Close() error {
	c.mu.Lock()
	reps := make([]*ichain.Replica, 0, len(c.replicas))
	for id, rep := range c.replicas {
		reps = append(reps, rep)
		delete(c.replicas, id)
	}
	c.mu.Unlock()
	var first error
	for _, rep := range reps {
		if err := rep.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.tr.Close()
	return first
}
