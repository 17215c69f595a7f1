package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"time"

	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/kvstore"
	"kaminotx/internal/locktable"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
	"kaminotx/internal/pbtree"
	"kaminotx/internal/pqueue"
	"kaminotx/internal/transport"
	"kaminotx/internal/workload"
	"kaminotx/kamino"
)

// The ladder issues the same 1 KiB put and get at every layer boundary, one
// at a time on one goroutine, a fixed number of times per rung drawn from one
// seed-derived key stream. Timing is taken around the public call into each
// layer; counts come from public counters and repeat exactly for a seed.
// A layer's self time is its rung's median minus the rung below.

// ladder accumulates the rungs' metrics.
type ladder struct {
	sz     sizes
	keys   []uint64 // the shared key stream, ladderN long
	val    []byte
	rec    *recorder
	values map[string]float64
	// extras are report-only numbers that are not per-layer metrics.
	extras map[string]float64
}

// rung times n calls of fn, `chunk` calls per clock reading (sub-microsecond
// calls would otherwise measure the clock), records one span per reading,
// and returns the median nanoseconds per call.
func (l *ladder) rung(name string, n, chunk int, fn func(i int) error) (float64, error) {
	per := make([]int64, 0, n/chunk)
	for i := 0; i+chunk <= n; i += chunk {
		t0 := time.Now()
		for j := i; j < i+chunk; j++ {
			if err := fn(j); err != nil {
				return 0, fmt.Errorf("ladder %s: %w", name, err)
			}
		}
		d := int64(time.Since(t0))
		start := int64(t0.Sub(epoch))
		l.rec.add(0, uint64(i), name, start, start+d)
		per = append(per, d/int64(chunk))
	}
	slices.Sort(per)
	return percentile(per, 50), nil
}

func (l *ladder) latency(mult int) nvm.Options {
	return nvm.Options{Mode: nvm.ModeFast, Latency: nvm.LatencyModel{
		FlushPerLine: l.sz.flush * time.Duration(mult),
		Fence:        l.sz.fence * time.Duration(mult),
	}}
}

// runLadder measures every rung and returns the per-layer metrics it yields.
func runLadder(seed int64, sz sizes, rec *recorder) (*ladder, error) {
	l := &ladder{sz: sz, val: make([]byte, sz.valueSize), rec: rec,
		values: map[string]float64{}, extras: map[string]float64{}}
	rng := rand.New(rand.NewSource(deriveSeed(seed, "ladder", 0)))
	zipf := workload.NewScrambledZipfian(uint64(sz.ladderKeys), workload.DefaultTheta)
	for i := 0; i < sz.ladderN; i++ {
		l.keys = append(l.keys, zipf.Next(rng))
	}
	fillValue(l.val, 0, 0, 0)
	for _, step := range []func() error{
		l.nvmRung, l.intentlogRung, l.heapRung, l.locktableRung, l.engineRungs,
		l.storeRungs, l.codecRung, l.serverRungs, l.pqueueRung, l.hopRung, l.chainRung,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	v := l.values
	v["engine.self_ns"] = v["engine.kamino-simple.tx1_ns"] - v["nvm.persist_1k_ns"]
	v["pbtree.self_ns"] = v["pbtree.put_ns"] - v["engine.kamino-simple.tx1_ns"]
	v["kvstore.self_ns"] = v["kvstore.update_ns"] - v["pbtree.put_ns"]
	v["server.self_ns"] = v["server.pipe_put_ns"] - v["kvstore.tenant_update_ns"]
	v["client.self_ns"] = v["client.tcp_put_ns"] - v["server.pipe_put_ns"]
	v["chain.self_ns"] = v["chain.put_w1_ns"] - v["kvstore.update_ns"]
	return l, nil
}

func (l *ladder) nvmRung() error {
	const size = 8 << 20
	reg, err := nvm.New(size, l.latency(1))
	if err != nil {
		return err
	}
	slots := uint64(size / l.sz.valueSize)
	l.values["nvm.persist_1k_ns"], err = l.rung("nvm.persist_1k", l.sz.ladderN, 1, func(i int) error {
		off := int(l.keys[i]%slots) * l.sz.valueSize
		if err := reg.Write(off, l.val); err != nil {
			return err
		}
		return reg.Persist(off, len(l.val))
	})
	return err
}

func (l *ladder) intentlogRung() error {
	cfg := intentlog.Config{Slots: 256, EntriesPerSlot: 64}
	reg, err := nvm.New(cfg.RegionSize(), l.latency(1))
	if err != nil {
		return err
	}
	log, err := intentlog.Format(reg, cfg)
	if err != nil {
		return err
	}
	before := reg.Stats()
	l.values["intentlog.append_commit_ns"], err = l.rung("intentlog.append_commit", l.sz.ladderN, 1, func(i int) error {
		tx, err := log.Begin()
		if err != nil {
			return err
		}
		if err := tx.Append(intentlog.Entry{Op: intentlog.OpWrite, Obj: l.keys[i]}); err != nil {
			return err
		}
		if err := tx.SetState(intentlog.StateCommitted); err != nil {
			return err
		}
		return tx.Release()
	})
	l.values["intentlog.fences_per_tx"] = float64(reg.Stats().Fences-before.Fences) / float64(l.sz.ladderN)
	return err
}

func (l *ladder) heapRung() error {
	reg, err := nvm.New(16<<20, l.latency(1))
	if err != nil {
		return err
	}
	h, err := heap.Format(reg)
	if err != nil {
		return err
	}
	l.values["heap.alloc_free_ns"], err = l.rung("heap.alloc_free", l.sz.ladderN, 1, func(int) error {
		obj, err := h.Reserve(l.sz.valueSize + valueHeader)
		if err != nil {
			return err
		}
		if err := h.CommitAlloc(obj); err != nil {
			return err
		}
		return h.ApplyFree(obj)
	})
	return err
}

func (l *ladder) locktableRung() error {
	t := locktable.New()
	var err error
	l.values["locktable.lock_unlock_ns"], err = l.rung("locktable.lock_unlock", l.sz.ladderN*16, 64, func(i int) error {
		obj := l.keys[i%len(l.keys)]
		t.Lock(obj, 1)
		t.Unlock(obj, 1)
		return nil
	})
	return err
}

// The one-object transactions run over sizes.engineObjects 1 KiB objects:
// in the full benchmark more than the dynamic backup (alpha 0.25 of a 32 MiB
// heap) holds, so its hit ratio means something.
const (
	engineHeap   = 32 << 20
	dynamicAlpha = 0.25
)

// engineRungs runs a one-object Update{Add, Write} on each engine at 0x, 1x
// and 4x the benchmark's NVM latency. Only the 1x pass yields per-engine
// metrics; the others feed the kamino-over-undo curve.
func (l *ladder) engineRungs() error {
	tx1 := map[kamino.Mode]map[int]float64{}
	for _, mode := range kamino.Modes() {
		tx1[mode] = map[int]float64{}
		for _, mult := range []int{0, 1, 4} {
			if mult != 1 && mode != kamino.ModeSimple && mode != kamino.ModeUndo {
				continue
			}
			if err := l.engineRung(mode, mult, tx1[mode]); err != nil {
				return fmt.Errorf("engine %s x%d: %w", mode, mult, err)
			}
		}
	}
	for _, mult := range []int{0, 1, 4} {
		l.values[fmt.Sprintf("engine.kamino_over_undo.lat%d", mult)] =
			ratio(tx1[kamino.ModeUndo][mult], tx1[kamino.ModeSimple][mult])
	}
	return nil
}

func (l *ladder) engineRung(mode kamino.Mode, mult int, tx1 map[int]float64) error {
	pool, err := kamino.Create(kamino.Options{
		Mode: mode, HeapSize: engineHeap, Alpha: dynamicAlpha,
		LogSlots: 256, LogEntriesPerSlot: 64, ApplierWorkers: 2,
		FlushLatency: l.sz.flush * time.Duration(mult),
		FenceLatency: l.sz.fence * time.Duration(mult),
	})
	if err != nil {
		return err
	}
	defer pool.Close()
	objs := make([]kamino.ObjID, 0, l.sz.engineObjects)
	for len(objs) < l.sz.engineObjects {
		err := pool.Update(func(tx *kamino.Tx) error {
			for i := 0; i < 32; i++ {
				obj, err := tx.Alloc(l.sz.valueSize + valueHeader)
				if err != nil {
					return err
				}
				objs = append(objs, obj)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	pool.Drain()
	name := "engine." + string(mode)
	before, stats := poolCounters(pool), pool.Stats()
	ns, err := l.rung(fmt.Sprintf("%s.tx1.x%d", name, mult), l.sz.ladderN, 1, func(i int) error {
		obj := objs[l.keys[i]%uint64(len(objs))]
		return pool.Update(func(tx *kamino.Tx) error {
			if err := tx.Add(obj); err != nil {
				return err
			}
			return tx.Write(obj, 0, l.val)
		})
	})
	if err != nil {
		return err
	}
	pool.Drain()
	tx1[mult] = ns
	if mult != 1 {
		return nil
	}
	n := float64(l.sz.ladderN)
	after, now := poolCounters(pool), pool.Stats()
	l.values[name+".tx1_ns"] = ns
	l.values[name+".fences_per_tx"] = float64(after.sumNVM("fences")-before.sumNVM("fences")) / n
	l.values[name+".crit_copy_bytes_per_tx"] = float64(now.BytesCopiedCritical-stats.BytesCopiedCritical) / n
	switch mode {
	case kamino.ModeSimple:
		l.values[name+".async_copy_bytes_per_tx"] = float64(now.BytesCopiedAsync-stats.BytesCopiedAsync) / n
		l.values["engine.ro_tx_ns"], err = l.rung("engine.ro_tx", l.sz.ladderN, 1, func(i int) error {
			obj := objs[l.keys[i]%uint64(len(objs))]
			return pool.View(func(tx *kamino.Tx) error {
				_, err := tx.Read(obj)
				return err
			})
		})
	case kamino.ModeDynamic:
		l.values["engine.dynamic.backup_hit_ratio"] = 1 - float64(now.BackupMisses-stats.BackupMisses)/n
	}
	return err
}

func poolCounters(pool *kamino.Pool) counters {
	return readCounters([]*obs.Registry{pool.Obs()})
}

// storeRungs measure pbtree, kvstore and the tenant view on one store the
// size of the ladder's key space, and take the exact per-put device counts
// from the kvstore rung.
func (l *ladder) storeRungs() error {
	sys, err := newEmbed(poolOptions(l.sz, l.sz.ladderKeys), l.sz.ladderKeys, l.sz.valueSize)
	if err != nil {
		return err
	}
	defer sys.close()
	tree, n := sys.store.Tree(), l.sz.ladderN
	if l.values["pbtree.put_ns"], err = l.rung("pbtree.put", n, 1, func(i int) error {
		return tree.Put(l.keys[i], l.val)
	}); err != nil {
		return err
	}
	if l.values["pbtree.get_ns"], err = l.rung("pbtree.get", n, 1, func(i int) error {
		_, _, err := tree.Get(l.keys[i])
		return err
	}); err != nil {
		return err
	}
	// Batches of 16 distinct ascending keys, as the server's batcher builds.
	batch := make([]pbtree.BatchOp, chainBatch)
	perBatch, err := l.rung("pbtree.applybatch16", n/chainBatch, 1, func(i int) error {
		base := l.keys[i] % uint64(l.sz.ladderKeys-chainBatch)
		for j := range batch {
			batch[j] = pbtree.BatchOp{Key: base + uint64(j), Value: l.val}
		}
		return tree.ApplyBatch(batch)
	})
	if err != nil {
		return err
	}
	l.values["pbtree.applybatch16_ns_per_op"] = perBatch / chainBatch

	sys.drain()
	before := poolCounters(sys.pool)
	if l.values["kvstore.update_ns"], err = l.rung("kvstore.update", n, 1, func(i int) error {
		return sys.store.Update(l.keys[i], l.val)
	}); err != nil {
		return err
	}
	sys.drain()
	after := poolCounters(sys.pool)
	for metric, field := range map[string]string{
		"nvm.fences_per_put":        "fences",
		"nvm.lines_flushed_per_put": "lines_flushed",
		"nvm.bytes_written_per_put": "bytes_written",
	} {
		l.values[metric] = float64(after.sumNVM(field)-before.sumNVM(field)) / float64(n)
	}
	if l.values["kvstore.read_ns"], err = l.rung("kvstore.read", n, 1, func(i int) error {
		_, _, err := sys.store.Read(l.keys[i])
		return err
	}); err != nil {
		return err
	}
	tenants, err := kvstore.LoadTenants(sys.store)
	if err != nil {
		return err
	}
	tenant, err := tenants.Ensure("ladder")
	if err != nil {
		return err
	}
	if err := preload(l.sz.durKeys, l.sz.valueSize, 1, tenant.Insert); err != nil {
		return err
	}
	if l.values["kvstore.tenant_update_ns"], err = l.rung("kvstore.tenant_update", n, 1, func(i int) error {
		return tenant.Update(l.keys[i]%uint64(l.sz.durKeys), l.val)
	}); err != nil {
		return err
	}

	// Tiling check: the same store driven by one closed-loop goroutine with
	// the embed-write mix. Its mean put latency should match the rung's.
	spec := findWorkload("embed-write")
	c := &client{stream: newOpStream(int64(l.keys[0]), 0, l.sz.ladderKeys, spec.mix),
		acked: map[uint64]uint32{}, val: make([]byte, l.sz.valueSize)}
	c.closedLoop(sys, "", "", time.Now().Add(time.Duration(n)*50*time.Microsecond))
	l.extras["ladder.embed1_put_mean_ns"] = mean(c.s.put)
	return nil
}

// codecRung round-trips one put and one get, request and response, through
// the kvwire codec over a bytes.Buffer.
func (l *ladder) codecRung() error {
	var buf bytes.Buffer
	enc, dec := transport.NewKVEncoder(&buf), transport.NewKVDecoder(&buf)
	trip := func(req *transport.KVRequest, resp *transport.KVResponse) error {
		var gotReq transport.KVRequest
		var gotResp transport.KVResponse
		if err := enc.Request(req); err != nil {
			return err
		}
		if err := dec.Request(&gotReq); err != nil {
			return err
		}
		if err := enc.Response(resp); err != nil {
			return err
		}
		return dec.Response(&gotResp)
	}
	put := &transport.KVRequest{Kind: transport.KVPut, Value: l.val}
	putAck := &transport.KVResponse{Status: transport.KVOK}
	get := &transport.KVRequest{Kind: transport.KVGet}
	getAck := &transport.KVResponse{Found: true, Value: l.val}
	// The first frames carry gob's type descriptions; prime them away.
	if err := errors.Join(trip(put, putAck), trip(get, getAck)); err != nil {
		return err
	}
	var wire int
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var err error
	l.values["kvwire.put_codec_ns"], err = l.rung("kvwire.put_codec", l.sz.ladderN, 1, func(i int) error {
		put.ID, put.Key, putAck.ID = uint64(i), l.keys[i], uint64(i)
		before := buf.Len()
		if err := enc.Request(put); err != nil {
			return err
		}
		wire += buf.Len() - before
		var gotReq transport.KVRequest
		if err := dec.Request(&gotReq); err != nil {
			return err
		}
		before = buf.Len()
		if err := enc.Response(putAck); err != nil {
			return err
		}
		wire += buf.Len() - before
		var gotResp transport.KVResponse
		return dec.Response(&gotResp)
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	l.values["kvwire.allocs_per_put"] = float64(m1.Mallocs-m0.Mallocs) / float64(l.sz.ladderN)
	l.values["kvwire.wire_bytes_per_put"] = float64(wire) / float64(l.sz.ladderN)
	l.values["kvwire.get_codec_ns"], err = l.rung("kvwire.get_codec", l.sz.ladderN, 1, func(i int) error {
		get.ID, get.Key, getAck.ID = uint64(i), l.keys[i], uint64(i)
		return trip(get, getAck)
	})
	return err
}

// pipeListener hands the server one end of an in-memory net.Pipe per dial:
// the whole service path without the kernel's sockets.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (p *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-p.conns:
		return c, nil
	case <-p.closed:
		return nil, net.ErrClosed
	}
}

func (p *pipeListener) Close() error {
	select {
	case <-p.closed:
	default:
		close(p.closed)
	}
	return nil
}

func (p *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (p *pipeListener) dial() (net.Conn, error) {
	client, srv := net.Pipe()
	select {
	case p.conns <- srv:
		return client, nil
	case <-p.closed:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// serverRungs put through the server one request at a time: over an
// in-memory pipe, then over loopback TCP with the response breakdown on.
// The difference is what the kernel's sockets cost.
func (l *ladder) serverRungs() error {
	n := l.sz.ladderN / 2
	opts := poolOptions(l.sz, l.sz.durKeys)
	pl := newPipeListener()
	piped, err := newServe(opts, l.sz.durKeys, l.sz.valueSize, pl, 1, pl.dial)
	if err != nil {
		return err
	}
	l.values["server.pipe_put_ns"], err = l.rung("server.pipe_put", n, 1, func(i int) error {
		return piped.put(l.keys[i]%uint64(l.sz.durKeys), l.val)
	})
	if cerr := piped.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	tcp, err := newServe(opts, l.sz.durKeys, l.sz.valueSize, ln, 1,
		func() (net.Conn, error) { return net.Dial("tcp", addr) })
	if err != nil {
		return err
	}
	defer tcp.close()
	// One request in flight, through the same client code the serve
	// workloads use, so the breakdown metrics mean the same thing.
	c := &client{acked: map[uint64]uint32{}, val: l.val, rec: l.rec}
	before := readCounters(tcp.registries())
	_, err = l.rung("client.tcp", n, 1, func(i int) error {
		key := l.keys[i] % uint64(l.sz.durKeys)
		fillValue(l.val, key, 0, uint32(i)) // gets check the key they read back
		req := transport.KVRequest{Kind: transport.KVPut, Key: key, Value: l.val, Breakdown: true}
		if i%2 == 1 {
			req = transport.KVRequest{Kind: transport.KVGet, Key: key, Breakdown: true}
		}
		t0 := time.Now()
		call, err := tcp.conns[0].Send(&req)
		if err != nil {
			return err
		}
		<-call.Done
		c.complete(inflight{call: call, o: op{put: i%2 == 0, key: key}, t0: t0}, time.Now())
		return nil
	})
	if err != nil {
		return err
	}
	if c.s.failed > 0 {
		return fmt.Errorf("ladder client.tcp_put: %d requests failed", c.s.failed)
	}
	// The rung alternates puts and gets so every phase has samples; its
	// put cost is the median over the puts alone.
	c.s.sort()
	l.values["client.tcp_put_ns"] = percentile(c.s.put, 50)
	phaseMetrics(l.values, &c.s)
	batcherMetrics(l.values, before, readCounters(tcp.registries()), float64(n))
	return nil
}

func (l *ladder) pqueueRung() error {
	reg, err := nvm.New(4<<20, l.latency(1))
	if err != nil {
		return err
	}
	q, err := pqueue.Format(reg)
	if err != nil {
		return err
	}
	var seq uint64
	recs := make([]pqueue.Record, chainBatch)
	appendN := func(k int) func(int) error {
		return func(int) error {
			for j := 0; j < k; j++ {
				seq++
				recs[j] = pqueue.Record{Seq: seq, Name: "kv.put", Args: l.val}
			}
			if err := q.AppendBatch(recs[:k]); err != nil {
				return err
			}
			// Dropping the acknowledged prefix is part of a record's
			// life in the chain, so it is timed with the append.
			return q.DropThrough(seq)
		}
	}
	before := reg.Stats()
	if l.values["pqueue.append1_ns"], err = l.rung("pqueue.append1", l.sz.ladderN, 1, appendN(1)); err != nil {
		return err
	}
	l.values["pqueue.fences_per_append"] = float64(reg.Stats().Fences-before.Fences) / float64(l.sz.ladderN)
	per16, err := l.rung("pqueue.append16", l.sz.ladderN/chainBatch, 1, appendN(chainBatch))
	l.values["pqueue.append16_ns_per_rec"] = per16 / chainBatch
	return err
}

func (l *ladder) hopRung() error {
	tr := transport.NewInProc(hopLatency)
	defer tr.Close()
	if err := tr.Register("echo", func(m *transport.Message) *transport.Message { return m }); err != nil {
		return err
	}
	msg := &transport.Message{Kind: transport.KindRead, Payload: l.val}
	call, err := l.rung("transport.inproc_call", l.sz.ladderN, 1, func(int) error {
		_, err := tr.Call("echo", msg)
		return err
	})
	l.values["chain.hop_ns"] = call / 2 // a call is a hop each way
	return err
}

func (l *ladder) chainRung() error {
	n := l.sz.ladderN / 2
	sys, err := newChain(chainOptions(l.sz, l.sz.durKeys), l.sz.durKeys, l.sz.valueSize)
	if err != nil {
		return err
	}
	defer sys.close()
	before := readCounters(sys.registries())
	if l.values["chain.put_w1_ns"], err = l.rung("chain.put_w1", n, 1, func(i int) error {
		return sys.put(l.keys[i]%uint64(l.sz.durKeys), l.val)
	}); err != nil {
		return err
	}
	sys.drain()
	after := readCounters(sys.registries())
	l.values["chain.fences_per_put"] = float64(after.sumNVM("fences")-before.sumNVM("fences")) / float64(n)
	l.values["chain.batch_size_mean"] = ratio(float64(after["batch_ops"]-before["batch_ops"]), float64(after["batches"]-before["batches"]))
	return nil
}

// sortedNames lists a metric map's names in order, for stable output.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
