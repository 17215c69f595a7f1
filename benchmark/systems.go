package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kaminotx/internal/kvstore"
	"kaminotx/internal/obs"
	"kaminotx/internal/server"
	"kaminotx/kamino"
	"kaminotx/kamino/chain"
)

// sizes fixes every scale parameter of a run. fullSizes is the benchmark;
// tests shrink it.
type sizes struct {
	keys       int // embedded and served stores
	chainKeys  int
	durKeys    int // durability-pass stores
	durOps     int // length of the replayed op-stream prefix
	ladderKeys int
	ladderN    int // operations per ladder rung
	// engineObjects is the working set of the ladder's one-object
	// transactions.
	engineObjects int
	valueSize     int
	setups        int     // set-ups per end-to-end run; the median is reported
	rate          float64 // serve-rate offered load, requests per second
	// The NVM latency model, injected by busy-spin: device time is CPU
	// time on this host.
	flush, fence time.Duration
}

var fullSizes = sizes{
	keys:          50_000,
	chainKeys:     20_000,
	durKeys:       2_000,
	durOps:        1_500,
	ladderKeys:    20_000,
	ladderN:       3_000,
	engineObjects: 16_384,
	valueSize:     1024,
	setups:        3,
	rate:          8000,
	flush:         300 * time.Nanosecond,
	fence:         500 * time.Nanosecond,
}

const (
	clients     = 2 // client goroutines or connections; this host has 2 CPUs
	serveWindow = 64
	rateWindow  = 256
	batchDelay  = 50 * time.Microsecond
	hopLatency  = 3 * time.Microsecond
	chainBatch  = 16
	// preloaders is how many goroutines load a chain during set-up: enough
	// to fill hop batches, which two would not.
	preloaders = 16
)

// system is one instance of the program under test, reached only through
// public functions of its packages.
type system interface {
	get(key uint64) ([]byte, bool, error)
	put(key uint64, val []byte) error
	// registries are the obs registries whose counters and gauges the
	// benchmark reads at window edges.
	registries() []*obs.Registry
	// drain blocks until asynchronous post-commit work has finished, so
	// counters read afterwards cover everything the window caused.
	drain()
	// check verifies the instance's structural invariants.
	check() error
	close() error
}

func poolOptions(sz sizes, keys int) kamino.Options {
	return kamino.Options{
		Mode:              kamino.ModeSimple,
		HeapSize:          keys*(sz.valueSize+128)*3 + (64 << 20),
		LogSlots:          256,
		LogEntriesPerSlot: 64,
		ApplierWorkers:    2,
		FlushLatency:      sz.flush,
		FenceLatency:      sz.fence,
	}
}

// preload stores the set-up value of keys [0, keys) through put, each of n
// goroutines loading its own contiguous range: neighbours in key order share
// tree leaves and hash buckets, and interleaved loaders would wait on each
// other's backup syncs.
func preload(keys, valueSize, n int, put func(key uint64, val []byte) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			val := make([]byte, valueSize)
			for k := g * keys / n; k < (g+1)*keys/n; k++ {
				fillValue(val, uint64(k), preloadWriter, 0)
				if err := put(uint64(k), val); err != nil {
					errs[g] = fmt.Errorf("preload key %d: %w", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// embedSystem is a kvstore.Store on a kamino-simple pool, called directly.
type embedSystem struct {
	pool  *kamino.Pool
	store *kvstore.Store
}

func newEmbed(opts kamino.Options, keys, valueSize int) (*embedSystem, error) {
	pool, err := kamino.Create(opts)
	if err != nil {
		return nil, err
	}
	store, err := kvstore.Create(pool, 0)
	if err != nil {
		pool.Close()
		return nil, err
	}
	if err := preload(keys, valueSize, clients, store.Insert); err != nil {
		pool.Close()
		return nil, err
	}
	pool.Drain()
	return &embedSystem{pool: pool, store: store}, nil
}

func setupEmbed(sz sizes) (system, error) {
	return newEmbed(poolOptions(sz, sz.keys), sz.keys, sz.valueSize)
}

func (e *embedSystem) get(key uint64) ([]byte, bool, error) { return e.store.Read(key) }
func (e *embedSystem) put(key uint64, val []byte) error     { return e.store.Update(key, val) }
func (e *embedSystem) registries() []*obs.Registry          { return []*obs.Registry{e.pool.Obs()} }
func (e *embedSystem) drain()                               { e.pool.Drain() }
func (e *embedSystem) check() error                         { return e.store.Tree().CheckInvariants() }
func (e *embedSystem) close() error                         { return e.pool.Close() }

// serveSystem is the kaminod server core on a listener, with the client
// connections the workload drives. The benchmark owns the server's obs
// registry, so it can read the batcher's counters.
type serveSystem struct {
	pool  *kamino.Pool
	store *kvstore.Store
	srv   *server.Server
	reg   *obs.Registry
	conns []*server.Client
	next  atomic.Uint64 // spreads get and put over the connections
}

// newServe starts a server over ln on a fresh store preloaded with keys, and
// opens n client connections through dial.
func newServe(opts kamino.Options, keys, valueSize int, ln net.Listener, n int, dial func() (net.Conn, error)) (*serveSystem, error) {
	pool, err := kamino.Create(opts)
	if err != nil {
		ln.Close()
		return nil, err
	}
	s := &serveSystem{pool: pool, reg: obs.New("server")}
	fail := func(err error) (*serveSystem, error) {
		s.close()
		return nil, err
	}
	if s.store, err = kvstore.Create(pool, 0); err != nil {
		ln.Close()
		return fail(err)
	}
	s.srv, err = server.New(ln, server.Options{Store: s.store, BatchDelay: batchDelay, Obs: s.reg})
	if err != nil {
		ln.Close()
		return fail(err)
	}
	go s.srv.Serve()
	// Preload below the wire: set-up time should not depend on the codec
	// the serve workloads measure.
	tenant, err := s.srv.Tenants().Ensure("default")
	if err != nil {
		return fail(err)
	}
	if err := preload(keys, valueSize, clients, tenant.Insert); err != nil {
		return fail(err)
	}
	pool.Drain()
	for i := 0; i < n; i++ {
		conn, err := dial()
		if err != nil {
			return fail(err)
		}
		s.conns = append(s.conns, server.NewClient(conn))
	}
	return s, nil
}

func setupServe(sz sizes) (system, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	return newServe(poolOptions(sz, sz.keys), sz.keys, sz.valueSize, ln, clients,
		func() (net.Conn, error) { return net.Dial("tcp", addr) })
}

func (s *serveSystem) conn() *server.Client {
	return s.conns[s.next.Add(1)%uint64(len(s.conns))]
}
func (s *serveSystem) get(key uint64) ([]byte, bool, error) { return s.conn().Get("", key) }
func (s *serveSystem) put(key uint64, val []byte) error     { return s.conn().Put("", key, val) }
func (s *serveSystem) registries() []*obs.Registry {
	return []*obs.Registry{s.pool.Obs(), s.reg}
}
func (s *serveSystem) drain()       { s.pool.Drain() }
func (s *serveSystem) check() error { return s.store.Tree().CheckInvariants() }
func (s *serveSystem) close() error {
	for _, c := range s.conns {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	return s.pool.Close()
}

// chainSystem is a replicated chain in this process.
type chainSystem struct {
	cl *chain.Cluster
}

func newChain(opts chain.Options, keys, valueSize int) (*chainSystem, error) {
	cl, err := chain.New(opts)
	if err != nil {
		return nil, err
	}
	if err := preload(keys, valueSize, preloaders, cl.Put); err != nil {
		cl.Close()
		return nil, err
	}
	c := &chainSystem{cl: cl}
	c.drain()
	return c, nil
}

func chainOptions(sz sizes, keys int) chain.Options {
	return chain.Options{
		Replicas:     3,
		HeapSize:     keys*(sz.valueSize+256)*2 + (32 << 20),
		HopLatency:   hopLatency,
		FlushLatency: sz.flush,
		FenceLatency: sz.fence,
		BatchOps:     chainBatch,
	}
}

func setupChain(sz sizes) (system, error) {
	return newChain(chainOptions(sz, sz.chainKeys), sz.chainKeys, sz.valueSize)
}

func (c *chainSystem) get(key uint64) ([]byte, bool, error) { return c.cl.Get(key) }
func (c *chainSystem) put(key uint64, val []byte) error     { return c.cl.Put(key, val) }
func (c *chainSystem) registries() []*obs.Registry          { return c.cl.Obs() }

// drain waits until the head's backup appliers are idle and the replicas'
// clean-up acknowledgments have stopped writing: the cluster exposes no
// Drain, so quiescence is read off its public counters.
func (c *chainSystem) drain() {
	var last uint64
	for stable := 0; stable < 3; {
		time.Sleep(200 * time.Microsecond)
		cs := readCounters(c.registries())
		written := cs.sumNVM("bytes_written")
		if cs["backup_pending_txs"] == 0 && written == last {
			stable++
		} else {
			stable = 0
		}
		last = written
	}
}

func (c *chainSystem) check() error { return c.cl.Err() }
func (c *chainSystem) close() error { return c.cl.Close() }
