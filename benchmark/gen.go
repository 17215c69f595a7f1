package main

import (
	"encoding/binary"
	"hash/fnv"

	"kaminotx/internal/workload"
)

// Input generation. Every stream of keys and values is a pure function of
// the -seed flag; the program under test only ever sees the generated keys
// and values, never the seed or the workload name.

// preloadWriter tags the values written during set-up; client writers are
// numbered from 0.
const preloadWriter = 0xFF

// valueHeader is the self-describing prefix of every generated value: the
// key, then writer<<32|seq. The verifier reads it back to learn which
// acknowledged put a stored value claims to be.
const valueHeader = 16

// deriveSeed gives each named stream its own generator seed, so adding a
// stream never shifts the others.
func deriveSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h.Write(b[:])
	h.Write([]byte(stream))
	return int64(h.Sum64() >> 1)
}

// op is one generated operation. seq numbers the writer's puts from 1.
type op struct {
	put bool
	key uint64
	seq uint32
}

// opStream is one client's deterministic operation sequence: YCSB mix over
// scrambled-Zipfian (theta 0.99) keys from internal/workload.
type opStream struct {
	gen    *workload.Generator
	writer uint8
	seq    uint32
}

func newOpStream(seed int64, writer int, keys int, mix workload.Mix) *opStream {
	ks := workload.NewKeyState(uint64(keys))
	return &opStream{
		gen:    workload.NewGenerator(mix, ks, deriveSeed(seed, "ops", writer)),
		writer: uint8(writer),
	}
}

func (s *opStream) next() op {
	o := s.gen.Next()
	if o.Kind == workload.OpRead {
		return op{key: o.Key}
	}
	s.seq++
	return op{put: true, key: o.Key, seq: s.seq}
}

// nextPut skips ahead to the stream's next put.
func (s *opStream) nextPut() op {
	for {
		if o := s.next(); o.put {
			return o
		}
	}
}

// fillValue writes the value for (key, writer, seq) into buf: the header,
// then a xorshift stream seeded by it, so any torn or misplaced value fails
// checkValue.
func fillValue(buf []byte, key uint64, writer uint8, seq uint32) {
	tag := uint64(writer)<<32 | uint64(seq)
	binary.LittleEndian.PutUint64(buf[0:], key)
	binary.LittleEndian.PutUint64(buf[8:], tag)
	x := (key+1)*0x9E3779B97F4A7C15 ^ (tag+1)*0xBF58476D1CE4E5B9
	i := valueHeader
	for ; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(x >> (8 * (i & 7)))
	}
}

// checkValue parses a stored value and reports whether its body is exactly
// what fillValue generates for the header it carries.
func checkValue(buf []byte) (key uint64, writer uint8, seq uint32, ok bool) {
	if len(buf) < valueHeader {
		return 0, 0, 0, false
	}
	key = binary.LittleEndian.Uint64(buf[0:])
	tag := binary.LittleEndian.Uint64(buf[8:])
	writer, seq = uint8(tag>>32), uint32(tag)
	if tag>>40 != 0 {
		return key, writer, seq, false
	}
	want := make([]byte, len(buf))
	fillValue(want, key, writer, seq)
	return key, writer, seq, string(want) == string(buf)
}
