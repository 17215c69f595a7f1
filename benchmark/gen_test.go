package main

import (
	"bytes"
	"testing"

	"kaminotx/internal/workload"
)

// streamBytes renders the first n operations of a client's stream, values
// included, so equal bytes mean the program saw equal inputs.
func streamBytes(seed int64, client, n int) []byte {
	s := newOpStream(seed, client, 1000, workload.MixA)
	var buf bytes.Buffer
	val := make([]byte, 64)
	for i := 0; i < n; i++ {
		o := s.next()
		if o.put {
			fillValue(val, o.key, s.writer, o.seq)
			buf.Write(val)
		} else {
			buf.WriteByte(byte(o.key))
		}
	}
	return buf.Bytes()
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b := streamBytes(7, 0, 2000), streamBytes(7, 0, 2000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed gave different op streams")
	}
	if bytes.Equal(a, streamBytes(8, 0, 2000)) {
		t.Fatal("different seeds gave the same op stream")
	}
	if bytes.Equal(a, streamBytes(7, 1, 2000)) {
		t.Fatal("two clients of one seed share an op stream")
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, size := range []int{valueHeader, 61, 1024} {
		val := make([]byte, size)
		fillValue(val, 42, 1, 9)
		key, writer, seq, ok := checkValue(val)
		if !ok || key != 42 || writer != 1 || seq != 9 {
			t.Fatalf("size %d: got key %d writer %d seq %d ok %v", size, key, writer, seq, ok)
		}
	}
	val := make([]byte, 1024)
	fillValue(val, 42, 1, 9)
	val[700] ^= 1
	if _, _, _, ok := checkValue(val); ok {
		t.Fatal("a torn value passed checkValue")
	}
	if _, _, _, ok := checkValue(val[:8]); ok {
		t.Fatal("a truncated value passed checkValue")
	}
}

// TestVerifierRejectsTamperedModel: the read-back check must fail when the
// store and the model disagree about the last acknowledged put, in either
// direction.
func TestVerifierRejectsTamperedModel(t *testing.T) {
	writers := []*client{{acked: map[uint64]uint32{5: 3}}, {acked: map[uint64]uint32{}}}
	val := make([]byte, 64)
	fillValue(val, 5, 0, 3)
	if !acceptable(5, val, true, writers) {
		t.Fatal("the last acknowledged put was rejected")
	}
	writers[0].acked[5] = 4 // the model says a later put was acknowledged
	if acceptable(5, val, true, writers) {
		t.Fatal("a lost acknowledged put was accepted")
	}
	writers[0].acked[5] = 3
	fillValue(val, 5, 1, 1) // a value from a writer that never acknowledged it
	if acceptable(5, val, true, writers) {
		t.Fatal("an unacknowledged writer's value was accepted")
	}
	fillValue(val, 5, preloadWriter, 0) // the set-up value after an acknowledged put
	if acceptable(5, val, true, writers) {
		t.Fatal("a stale set-up value was accepted")
	}
	if !acceptable(6, setupValue(6, 64), true, writers) {
		t.Fatal("an unwritten key's set-up value was rejected")
	}
	if acceptable(5, nil, false, writers) {
		t.Fatal("a missing key was accepted")
	}
	fillValue(val, 6, 0, 3) // right writer and seq, wrong key
	if acceptable(5, val, true, writers) {
		t.Fatal("a misplaced value was accepted")
	}
}

func setupValue(key uint64, size int) []byte {
	val := make([]byte, size)
	fillValue(val, key, preloadWriter, 0)
	return val
}
