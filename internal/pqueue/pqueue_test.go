package pqueue

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"kaminotx/internal/nvm"
)

func newQueue(t *testing.T, size int) *Queue {
	t.Helper()
	reg, err := nvm.New(size, nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Format(reg)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// put appends recs to the pending range, one AppendBatch.
func put(t *testing.T, q *Queue, recs ...Record) {
	t.Helper()
	if err := q.AppendBatch(recs); err != nil {
		t.Fatalf("AppendBatch(%d records from seq %d): %v", len(recs), recs[0].Seq, err)
	}
}

// ranges decodes both of the ring's ranges and checks the header walk
// against them: Spans must count and bound exactly what Inflight and
// Pending decode.
func ranges(q *Queue) (inflight, pending []Record, err error) {
	if inflight, err = q.Inflight(); err != nil {
		return nil, nil, err
	}
	if pending, err = q.Pending(); err != nil {
		return nil, nil, err
	}
	fl, pend, err := q.Spans()
	if err != nil {
		return nil, nil, err
	}
	if fl != spanOf(inflight) || pend != spanOf(pending) {
		return nil, nil, fmt.Errorf("Spans = %+v, %+v; the records decode to %+v, %+v", fl, pend, spanOf(inflight), spanOf(pending))
	}
	return inflight, pending, nil
}

func spanOf(recs []Record) Span {
	if len(recs) == 0 {
		return Span{}
	}
	return Span{Records: len(recs), First: recs[0].Seq, Last: recs[len(recs)-1].Seq}
}

// all returns every record the ring holds, oldest first, both ranges.
func all(t *testing.T, q *Queue) []Record {
	t.Helper()
	inflight, pending, err := ranges(q)
	if err != nil {
		t.Fatal(err)
	}
	return append(inflight, pending...)
}

// oldest returns the sequence number at the front of the ring.
func oldest(t *testing.T, q *Queue) uint64 {
	t.Helper()
	recs := all(t, q)
	if len(recs) == 0 {
		t.Fatal("the ring is empty; want at least one record")
	}
	return recs[0].Seq
}

func TestFIFOOrder(t *testing.T) {
	q := newQueue(t, 8192)
	for i := uint64(1); i <= 10; i++ {
		put(t, q, Record{Seq: i, Name: "op", Args: []byte{byte(i)}})
	}
	// The consumer's life: read the oldest pending record, hand it on
	// (MarkDone), see it acknowledged (DropThrough) — in append order.
	cur := q.Cursor()
	for i := uint64(1); i <= 10; i++ {
		r, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r.Seq != i || r.Args[0] != byte(i) {
			t.Errorf("read %+v, want seq %d", r, i)
		}
		if err := q.MarkDone(i); err != nil {
			t.Fatal(err)
		}
		if fl, err := q.Inflight(); err != nil || len(fl) != 1 || fl[0].Seq != i {
			t.Fatalf("in flight after MarkDone(%d) = %+v %v", i, fl, err)
		}
		if err := q.DropThrough(i); err != nil {
			t.Fatal(err)
		}
		if n := len(all(t, q)); n != int(10-i) {
			t.Fatalf("%d records after retiring %d, want %d", n, i, 10-i)
		}
	}
	if _, err := cur.Next(); !errors.Is(err, ErrEmpty) {
		t.Errorf("read of an empty ring = %v", err)
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	q := newQueue(t, 4096)
	put(t, q, Record{Seq: 5, Name: "x"})
	// Neither a fresh cursor nor the range views consume anything.
	for range 2 {
		r, err := q.Cursor().Next()
		if err != nil || r.Seq != 5 {
			t.Fatalf("Next = %+v %v", r, err)
		}
		if pend, err := q.Pending(); err != nil || len(pend) != 1 || pend[0].Seq != 5 {
			t.Fatalf("Pending = %+v %v", pend, err)
		}
	}
	if n := len(all(t, q)); n != 1 {
		t.Errorf("%d records after reading, want 1", n)
	}
}

func TestWrapAround(t *testing.T) {
	q := newQueue(t, 2048)
	args := make([]byte, 100)
	// Push/pop more total bytes than the capacity to force wrapping.
	seq := uint64(0)
	cur := q.Cursor()
	for round := 0; round < 50; round++ {
		for i := 0; i < 5; i++ {
			seq++
			args[0] = byte(seq)
			put(t, q, Record{Seq: seq, Name: fmt.Sprintf("op%d", seq), Args: args})
		}
		for i := 0; i < 5; i++ {
			r, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if r.Args[0] != byte(r.Seq) {
				t.Fatalf("record %d corrupted across wrap", r.Seq)
			}
			if r.Name != fmt.Sprintf("op%d", r.Seq) {
				t.Fatalf("name corrupted: %q", r.Name)
			}
		}
		// Half the rounds retire through the in-flight range, half
		// straight from pending, as a middle and a tail do.
		if round%2 == 0 {
			if err := q.MarkDone(seq); err != nil {
				t.Fatal(err)
			}
		}
		if err := q.DropThrough(seq); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(all(t, q)); n != 0 {
		t.Errorf("%d records left", n)
	}
}

// The header walk agrees with what the ranges decode to however the ring
// has wrapped: records of three sizes, both ranges holding some at most
// steps, checked after every append and cursor move.
func TestSpansMatchDecodedRanges(t *testing.T) {
	q := newQueue(t, 2048)
	check := func(what string) {
		t.Helper()
		if _, _, err := ranges(q); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	seq := uint64(0)
	for round := 0; round < 60; round++ {
		for i := 0; i <= round%3; i++ {
			seq++
			put(t, q, Record{Seq: seq, Name: "op", Args: make([]byte, 40+70*(seq%3))})
			check(fmt.Sprintf("append %d", seq))
		}
		if err := q.MarkDone(seq - 1); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("MarkDone(%d)", seq-1))
		if seq > 3 {
			if err := q.AckThrough(seq - 3); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("AckThrough(%d)", seq-3))
		}
	}
	if q.tail < 3*q.cap {
		t.Fatalf("the ring wrapped %d times, want at least 3", q.tail/q.cap)
	}
}

// Find decodes one record wherever the ring holds it; Oldest reads the
// front of the in-flight range and never past it into the pending one.
func TestFindAndOldest(t *testing.T) {
	q := newQueue(t, 4096)
	for i := uint64(1); i <= 5; i++ {
		put(t, q, Record{Seq: i, Name: "op", Args: []byte{byte(i)}})
	}
	if err := q.MarkDone(3); err != nil {
		t.Fatal(err)
	}
	if err := q.AckThrough(1); err != nil {
		t.Fatal(err)
	}
	for seq, held := range map[uint64]bool{1: false, 2: true, 3: true, 4: true, 5: true, 6: false} {
		rec, ok, err := q.Find(seq)
		if err != nil || ok != held || (held && (rec.Seq != seq || rec.Args[0] != byte(seq))) {
			t.Errorf("Find(%d) = %+v, %v, %v; want held %v", seq, rec, ok, err, held)
		}
	}
	for n, want := range map[int]int{1: 1, 2: 2, 16: 2, 0: 2} {
		if recs, err := q.Oldest(n); err != nil || len(recs) != want || recs[0].Seq != 2 {
			t.Errorf("Oldest(%d) = %+v, %v; want %d records from seq 2", n, recs, err, want)
		}
	}
}

func TestFull(t *testing.T) {
	q := newQueue(t, 2048)
	big := make([]byte, 300)
	var err error
	for i := 1; i < 100; i++ {
		err = q.AppendBatch([]Record{{Seq: uint64(i), Name: "op", Args: big}})
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("never filled: %v", err)
	}
	// Moving records in flight frees nothing; retiring one does.
	if err := q.MarkDone(2); err != nil {
		t.Fatal(err)
	}
	if err := q.AppendBatch([]Record{{Seq: 998, Name: "op", Args: big}}); !errors.Is(err, ErrFull) {
		t.Fatalf("append after MarkDone = %v, want ErrFull", err)
	}
	if err := q.DropThrough(1); err != nil {
		t.Fatal(err)
	}
	put(t, q, Record{Seq: 999, Name: "op", Args: big})
}

func TestDropThrough(t *testing.T) {
	q := newQueue(t, 8192)
	for i := uint64(1); i <= 10; i++ {
		put(t, q, Record{Seq: i, Name: "op"})
	}
	// Dropping does not stop at done: 1-4 are in flight, 5-7 pending.
	if err := q.MarkDone(4); err != nil {
		t.Fatal(err)
	}
	if err := q.DropThrough(7); err != nil {
		t.Fatal(err)
	}
	if got := oldest(t, q); got != 8 {
		t.Fatalf("oldest after DropThrough(7) = %d", got)
	}
	if fl, pend, err := q.Spans(); err != nil || fl.Records != 0 || pend.Records != 3 {
		t.Errorf("Spans = %+v in flight, %+v pending, %v; want 0, 3 records", fl, pend, err)
	}
}

func TestCrashDurability(t *testing.T) {
	q := newQueue(t, 8192)
	for i := uint64(1); i <= 5; i++ {
		put(t, q, Record{Seq: i, Name: "persist", Args: []byte{byte(i)}})
	}
	// Hand three on, retire two (persisted cursor moves), then crash.
	if err := q.MarkDone(3); err != nil {
		t.Fatal(err)
	}
	if err := q.DropThrough(2); err != nil {
		t.Fatal(err)
	}
	if err := q.reg.Crash(); err != nil {
		t.Fatal(err)
	}
	q2, err := Attach(q.reg)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := q2.Inflight()
	if err != nil {
		t.Fatal(err)
	}
	pend, err := q2.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(fl) != 1 || fl[0].Seq != 3 || len(pend) != 2 || pend[0].Seq != 4 || pend[1].Seq != 5 {
		t.Errorf("after crash: in flight %+v, pending %+v", fl, pend)
	}
}

func TestAttachRejectsGarbage(t *testing.T) {
	reg, _ := nvm.New(4096, nvm.Options{Mode: nvm.ModeStrict})
	if _, err := Attach(reg); err == nil {
		t.Error("Attach on unformatted region accepted")
	}
}

func TestEmptyAndLen(t *testing.T) {
	q := newQueue(t, 4096)
	fl, pend := q.Usage()
	if n := len(all(t, q)); n != 0 || fl != 0 || pend != 0 {
		t.Errorf("fresh ring holds %d records, %d+%d bytes", n, fl, pend)
	}
	if err := q.AppendExecuted([]Record{{Seq: 1, Name: "a"}}); err != nil {
		t.Fatal(err)
	}
	put(t, q, Record{Seq: 2, Name: "b"})
	fl, pend = q.Usage()
	if n := len(all(t, q)); n != 2 || fl == 0 || pend == 0 {
		t.Errorf("ring with one record in each range holds %d records, %d+%d bytes", n, fl, pend)
	}
}

// TestRecordGolden pins the ring layout of one chain put: a 24-byte header
// (size, sequence number, name length, argument length), the name, the
// 8-byte key and a 1 KiB value, padded to 1064 bytes.
func TestRecordGolden(t *testing.T) {
	q := newQueue(t, 4096)
	key := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	val := bytes.Repeat([]byte{0xAB}, 1024)
	rec := Record{Seq: 0x0102030405060708, Name: "put", Args: append(bytes.Clone(key), val...)}
	if err := q.AppendBatch([]Record{rec}); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x28, 0x04, 0, 0, // size: 1064
		8, 7, 6, 5, 4, 3, 2, 1, // sequence number
		3, 0, // name length
		0x08, 0x04, 0, 0, // argument length: 1032
		0, 0, 0, 0, 0, 0, // padding to 24
	}
	want = append(want, "put"...)
	want = append(want, key...)
	want = append(want, val...)
	want = append(want, make([]byte, 1064-len(want))...)
	got := make([]byte, len(want))
	if err := q.reg.Read(hdrSize, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ring record differs from byte %d\n got % x\nwant % x", i, got[i:min(i+16, len(got))], want[i:min(i+16, len(want))])
			break
		}
	}
	if q.tail != 1064 || recSize(rec) != 1064 {
		t.Errorf("record occupies %d bytes (recSize %d), want 1064", q.tail, recSize(rec))
	}
}

func TestAppendBatchOrderAndDurability(t *testing.T) {
	q := newQueue(t, 8192)
	var recs []Record
	for i := uint64(1); i <= 8; i++ {
		recs = append(recs, Record{Seq: i, Name: "op", Args: []byte{byte(i)}})
	}
	if err := q.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if q.LastSeq() != 8 {
		t.Errorf("LastSeq = %d, want 8", q.LastSeq())
	}
	// Everything must survive a crash: AppendBatch is durable on return.
	if err := q.reg.Crash(); err != nil {
		t.Fatal(err)
	}
	q2, err := Attach(q.reg)
	if err != nil {
		t.Fatal(err)
	}
	all := all(t, q2)
	if len(all) != 8 {
		t.Fatalf("after crash: %d records, want 8", len(all))
	}
	for i, r := range all {
		want := uint64(i + 1)
		if r.Seq != want || r.Args[0] != byte(want) {
			t.Errorf("record %d = %+v, want seq %d", i, r, want)
		}
	}
	if q2.LastSeq() != 8 {
		t.Errorf("LastSeq after crash = %d", q2.LastSeq())
	}
}

func TestAppendBatchSingleFenceEpoch(t *testing.T) {
	q := newQueue(t, 64<<10)
	var batch []Record
	for i := uint64(1); i <= 16; i++ {
		batch = append(batch, Record{Seq: i, Name: "op", Args: make([]byte, 64)})
	}
	before := q.reg.Stats().Fences
	if err := q.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	batchFences := q.reg.Stats().Fences - before

	q2 := newQueue(t, 64<<10)
	before = q2.reg.Stats().Fences
	for i := uint64(1); i <= 16; i++ {
		put(t, q2, Record{Seq: i, Name: "op", Args: make([]byte, 64)})
	}
	serialFences := q2.reg.Stats().Fences - before

	if batchFences > 2 {
		t.Errorf("AppendBatch(16) issued %d fences, want <= 2", batchFences)
	}
	if serialFences != 16*batchFences {
		t.Logf("serial fences = %d, batch fences = %d", serialFences, batchFences)
	}
	if batchFences*8 > serialFences {
		t.Errorf("batch fences %d not amortized vs serial %d", batchFences, serialFences)
	}
}

func TestAppendBatchWrapAround(t *testing.T) {
	q := newQueue(t, 2048)
	// Fill and drain to push the cursors near the ring end, then batch
	// across the wrap boundary.
	args := make([]byte, 200)
	for round := 0; round < 4; round++ {
		for i := uint64(0); i < 4; i++ {
			put(t, q, Record{Seq: uint64(round)*4 + i + 1, Name: "pad", Args: args})
		}
		if err := q.DropThrough(uint64(round)*4 + 4); err != nil {
			t.Fatal(err)
		}
	}
	var batch []Record
	for i := uint64(100); i < 106; i++ {
		batch = append(batch, Record{Seq: i, Name: "wrap", Args: args})
	}
	if err := q.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	all := all(t, q)
	if len(all) != 6 || all[0].Seq != 100 || all[5].Seq != 105 {
		t.Fatalf("after wrap batch: %+v", all)
	}
}

func TestAppendBatchFull(t *testing.T) {
	q := newQueue(t, 2048)
	big := make([]byte, 700)
	batch := []Record{
		{Seq: 1, Name: "a", Args: big},
		{Seq: 2, Name: "b", Args: big},
		{Seq: 3, Name: "c", Args: big},
	}
	if err := q.AppendBatch(batch); !errors.Is(err, ErrFull) {
		t.Fatalf("oversized batch = %v, want ErrFull", err)
	}
	// Nothing may have been admitted partially.
	if n := len(all(t, q)); n != 0 {
		t.Errorf("%d records after failed batch", n)
	}
}

func TestCursorDoesNotConsume(t *testing.T) {
	q := newQueue(t, 8192)
	for i := uint64(1); i <= 5; i++ {
		put(t, q, Record{Seq: i, Name: "op"})
	}
	cur := q.Cursor()
	for i := uint64(1); i <= 5; i++ {
		r, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r.Seq != i {
			t.Errorf("cursor record %d has seq %d", i, r.Seq)
		}
	}
	if _, err := cur.Next(); !errors.Is(err, ErrEmpty) {
		t.Errorf("exhausted cursor = %v, want ErrEmpty", err)
	}
	// The records are still all in the queue.
	if n := len(all(t, q)); n != 5 {
		t.Errorf("%d records after cursor sweep, want 5", n)
	}
	// New records become visible to an exhausted cursor.
	put(t, q, Record{Seq: 6, Name: "op"})
	r, err := cur.Next()
	if err != nil || r.Seq != 6 {
		t.Errorf("cursor after new enqueue = %+v %v", r, err)
	}
}

func TestCursorClampsToHead(t *testing.T) {
	q := newQueue(t, 8192)
	for i := uint64(1); i <= 6; i++ {
		put(t, q, Record{Seq: i, Name: "op"})
	}
	cur := q.Cursor()
	if r, err := cur.Next(); err != nil || r.Seq != 1 {
		t.Fatalf("first = %+v %v", r, err)
	}
	// Drop records 1-4 behind (and ahead of) the cursor; it must clamp
	// forward to the new head rather than re-reading reclaimed space.
	if err := q.DropThrough(4); err != nil {
		t.Fatal(err)
	}
	r, err := cur.Next()
	if err != nil || r.Seq != 5 {
		t.Fatalf("after DropThrough(4): %+v %v, want seq 5", r, err)
	}
	if r, err = cur.Next(); err != nil || r.Seq != 6 {
		t.Fatalf("next = %+v %v, want seq 6", r, err)
	}
}

func TestAckThroughPersistsAcrossReattach(t *testing.T) {
	reg, err := nvm.New(8192, nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Format(reg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		put(t, q, Record{Seq: i, Name: "op"})
	}
	if err := q.AckThrough(6); err != nil {
		t.Fatal(err)
	}
	if got := q.Acked(); got != 6 {
		t.Fatalf("Acked = %d, want 6", got)
	}
	if got := oldest(t, q); got != 7 {
		t.Fatalf("oldest after AckThrough(6) = %d", got)
	}
	// Unlike DropThrough, the floor survives a power cycle: recovery can
	// distinguish confirmed-complete from merely-forwarded.
	if err := reg.Crash(); err != nil {
		t.Fatal(err)
	}
	q2, err := Attach(reg)
	if err != nil {
		t.Fatal(err)
	}
	if got := q2.Acked(); got != 6 {
		t.Fatalf("Acked after reattach = %d, want 6", got)
	}
	if got := oldest(t, q2); got != 7 {
		t.Fatalf("oldest after reattach = %d", got)
	}
}

func TestAckThroughMonotone(t *testing.T) {
	q := newQueue(t, 8192)
	for i := uint64(1); i <= 5; i++ {
		put(t, q, Record{Seq: i, Name: "op"})
	}
	if err := q.AckThrough(4); err != nil {
		t.Fatal(err)
	}
	// A late, lower ack must not regress the floor.
	if err := q.AckThrough(2); err != nil {
		t.Fatal(err)
	}
	if got := q.Acked(); got != 4 {
		t.Fatalf("Acked after regressing ack = %d, want 4", got)
	}
	if got := oldest(t, q); got != 5 {
		t.Fatalf("oldest = %d, want seq 5", got)
	}
}

func TestSeedSeqRaisesDuplicateFloor(t *testing.T) {
	reg, err := nvm.New(4096, nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Format(reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.SeedSeq(100); err != nil {
		t.Fatal(err)
	}
	if got := q.LastSeq(); got != 100 {
		t.Fatalf("LastSeq after SeedSeq(100) = %d", got)
	}
	// Seeding lower is a no-op.
	if err := q.SeedSeq(50); err != nil {
		t.Fatal(err)
	}
	if got := q.LastSeq(); got != 100 {
		t.Fatalf("LastSeq after SeedSeq(50) = %d", got)
	}
	// The floor is durable: a crashed joiner must still drop re-forwarded
	// records the transferred image already covers.
	if err := reg.Crash(); err != nil {
		t.Fatal(err)
	}
	q2, err := Attach(reg)
	if err != nil {
		t.Fatal(err)
	}
	if got := q2.LastSeq(); got != 100 {
		t.Fatalf("LastSeq after reattach = %d, want 100", got)
	}
}

func TestOccupancyFollowsTruncation(t *testing.T) {
	q := newQueue(t, 8192)
	if fl, pend := q.Usage(); fl != 0 || pend != 0 {
		t.Fatalf("fresh ring usage %d+%d", fl, pend)
	}
	for i := uint64(1); i <= 8; i++ {
		put(t, q, Record{Seq: i, Name: "op", Args: make([]byte, 64)})
	}
	fl, full := q.Usage()
	if fl != 0 || full == 0 || full > q.Capacity() {
		t.Fatalf("usage %d+%d after appends, capacity %d", fl, full, q.Capacity())
	}
	// Executing moves the bytes from pending to in flight; acknowledging
	// truncates them.
	if err := q.MarkDone(8); err != nil {
		t.Fatal(err)
	}
	if fl, pend := q.Usage(); fl != full || pend != 0 {
		t.Fatalf("usage %d+%d after MarkDone, want %d+0", fl, pend, full)
	}
	if err := q.AckThrough(8); err != nil {
		t.Fatal(err)
	}
	if fl, pend := q.Usage(); fl != 0 || pend != 0 {
		t.Fatalf("occupied %d+%d after full ack", fl, pend)
	}
}

func TestAttachRejectsAckedBeyondSeq(t *testing.T) {
	reg, err := nvm.New(4096, nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Format(reg)
	if err != nil {
		t.Fatal(err)
	}
	put(t, q, Record{Seq: 3, Name: "op"})
	// Corrupt the header: an acked floor ahead of every assigned sequence
	// number is impossible and must be rejected, not trusted.
	if err := reg.Store64(hOffAcked, 99); err != nil {
		t.Fatal(err)
	}
	if err := reg.Persist(hOffAcked, 8); err != nil {
		t.Fatal(err)
	}
	if err := reg.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(reg); err == nil {
		t.Fatal("Attach accepted acked > lastSeq")
	}
}
