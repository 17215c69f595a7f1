// Package workload generates the paper's evaluation workloads: the YCSB
// core workloads A, B, C, D and F with their Table 3 operation mixes, plus
// the synthetic dependent-transaction and worst-case microbenchmarks of
// §7.1.
package workload

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// OpKind is one YCSB operation type.
type OpKind int

// YCSB operations.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpRMW
)

// String names the operation kind for logs and reports.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpRMW:
		return "rmw"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  uint64
}

// Mix is an operation mix in percent (must sum to 100).
type Mix struct {
	Read   int
	Update int
	Insert int
	RMW    int
}

// The YCSB core workload mixes from Table 3 of the paper.
var (
	MixA = Mix{Read: 50, Update: 50}
	MixB = Mix{Read: 95, Update: 5}
	MixC = Mix{Read: 100}
	MixD = Mix{Read: 95, Insert: 5}
	MixF = Mix{Read: 50, RMW: 50}
)

// MixFor returns the mix for a YCSB workload letter (A, B, C, D, F).
func MixFor(w byte) (Mix, error) {
	switch w {
	case 'A', 'a':
		return MixA, nil
	case 'B', 'b':
		return MixB, nil
	case 'C', 'c':
		return MixC, nil
	case 'D', 'd':
		return MixD, nil
	case 'F', 'f':
		return MixF, nil
	default:
		return Mix{}, fmt.Errorf("workload: unknown YCSB workload %q (supported: A B C D F)", w)
	}
}

// Workloads lists the YCSB letters the paper evaluates.
var Workloads = []byte{'A', 'B', 'C', 'D', 'F'}

// KeyState is shared between the generators of all worker threads: it
// tracks the growing key space as inserts land (YCSB workload D).
type KeyState struct {
	next atomic.Uint64 // next key to insert
}

// NewKeyState starts the key space with records preloaded keys 0..records-1.
func NewKeyState(records uint64) *KeyState {
	ks := &KeyState{}
	ks.next.Store(records)
	return ks
}

// Records returns the current number of inserted keys.
func (ks *KeyState) Records() uint64 { return ks.next.Load() }

// Generator produces a stream of operations for one worker thread.
// Generators for concurrent workers share a KeyState but nothing else.
type Generator struct {
	mix  Mix
	ks   *KeyState
	rng  *rand.Rand
	zipf *ScrambledZipfian
	// latest skews reads toward recently inserted keys (workload D).
	latest *Zipfian
}

// NewGenerator builds a generator for the given mix over ks's key space.
func NewGenerator(mix Mix, ks *KeyState, seed int64) *Generator {
	if mix.Read+mix.Update+mix.Insert+mix.RMW != 100 {
		panic(fmt.Sprintf("workload: mix %+v does not sum to 100", mix))
	}
	n := ks.Records()
	if n == 0 {
		n = 1
	}
	g := &Generator{
		mix:  mix,
		ks:   ks,
		rng:  rand.New(rand.NewSource(seed)),
		zipf: NewScrambledZipfian(n, DefaultTheta),
	}
	if mix.Insert > 0 {
		g.latest = NewZipfian(n, DefaultTheta)
	}
	return g
}

// Next generates one operation.
func (g *Generator) Next() Op {
	r := g.rng.Intn(100)
	switch {
	case r < g.mix.Read:
		return Op{Kind: OpRead, Key: g.readKey()}
	case r < g.mix.Read+g.mix.Update:
		return Op{Kind: OpUpdate, Key: g.chooseKey()}
	case r < g.mix.Read+g.mix.Update+g.mix.Insert:
		return Op{Kind: OpInsert, Key: g.ks.next.Add(1) - 1}
	default:
		return Op{Kind: OpRMW, Key: g.chooseKey()}
	}
}

// readKey picks a key for reads: "latest"-skewed when the workload inserts
// (YCSB D reads mostly recent records), Zipfian otherwise.
func (g *Generator) readKey() uint64 {
	if g.latest != nil {
		max := g.ks.Records()
		off := g.latest.Next(g.rng)
		if off >= max {
			off = max - 1
		}
		return max - 1 - off
	}
	return g.chooseKey()
}

// chooseKey picks a Zipfian key among the preloaded records.
func (g *Generator) chooseKey() uint64 {
	return g.zipf.Next(g.rng)
}

// Value fills buf with deterministic pseudo-random bytes for a key; all
// engines write identical data so comparisons are fair.
func Value(key uint64, buf []byte) {
	x := key*2654435761 + 1
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
}
