package pqueue

// Crash-point enumeration for the ring, as kamino/crashpoints_test.go does
// for the engines: a script of appends, cursor moves and acknowledgments is
// power-failed at EVERY fence it issues, with every class of outcome for
// the lines that fence left in doubt (none survive, all survive, each one
// alone). Attach must then accept the image and present exactly the state
// after the last step that returned, or after the step in progress — every
// step is one atomic move of the header line — and nothing of a torn append.
// FuzzAttach covers the images no crash produces.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"kaminotx/internal/nvm"
	"kaminotx/internal/trace"
)

// ringState is the model: what the ring must hold, oldest first.
type ringState struct {
	recs           []Record // [head, tail)
	done           int      // index in recs of the oldest pending record
	acked, lastSeq uint64
}

func (s ringState) String() string {
	seqs := func(rs []Record) (out []uint64) {
		for _, r := range rs {
			out = append(out, r.Seq)
		}
		return out
	}
	return fmt.Sprintf("inflight %v pending %v acked %d lastSeq %d", seqs(s.recs[:s.done]), seqs(s.recs[s.done:]), s.acked, s.lastSeq)
}

// step is one queue operation and its effect on the model.
type step struct {
	name  string
	do    func(q *Queue) error
	model func(s ringState) ringState
}

func testRec(seq uint64) Record {
	return Record{Seq: seq, Name: fmt.Sprintf("op%d", seq), Args: bytes.Repeat([]byte{byte(seq)}, 200)}
}

func appendStep(executed bool, seqs ...uint64) step {
	recs := make([]Record, len(seqs))
	for i, seq := range seqs {
		recs[i] = testRec(seq)
	}
	name, do := "AppendBatch", (*Queue).AppendBatch
	if executed {
		name, do = "AppendExecuted", (*Queue).AppendExecuted
	}
	return step{
		name: fmt.Sprintf("%s%v", name, seqs),
		do:   func(q *Queue) error { return do(q, recs) },
		model: func(s ringState) ringState {
			s.recs = append(s.recs[:len(s.recs):len(s.recs)], recs...)
			s.lastSeq = max(s.lastSeq, seqs[len(seqs)-1])
			if executed {
				s.done = len(s.recs)
			}
			return s
		},
	}
}

// through counts the leading records of rs numbered at most seq.
func through(rs []Record, seq uint64) int {
	n := 0
	for n < len(rs) && rs[n].Seq <= seq {
		n++
	}
	return n
}

func markDoneStep(seq uint64) step {
	return step{
		name: fmt.Sprintf("MarkDone(%d)", seq),
		do:   func(q *Queue) error { return q.MarkDone(seq) },
		model: func(s ringState) ringState {
			s.done += through(s.recs[s.done:], seq)
			return s
		},
	}
}

func dropStep(ack bool, seq uint64) step {
	name, do := "DropThrough", (*Queue).DropThrough
	if ack {
		name, do = "AckThrough", (*Queue).AckThrough
	}
	return step{
		name: fmt.Sprintf("%s(%d)", name, seq),
		do:   func(q *Queue) error { return do(q, seq) },
		model: func(s ringState) ringState {
			if ack {
				s.acked = max(s.acked, min(seq, s.lastSeq))
			}
			n := through(s.recs, seq)
			s.recs, s.done = s.recs[n:], max(s.done, n)-n
			return s
		},
	}
}

// ringScript walks one ring through every kind of move a chain replica
// makes, around the ring's end (240-byte records in 1024 bytes): a middle's
// append → execute-cursor move → acknowledgment, an acknowledgment that
// overtakes the cursor, a tail's retire, and a head's executed append.
var ringScript = []step{
	appendStep(false, 1, 2),
	markDoneStep(1),
	appendStep(false, 3),
	dropStep(true, 1),
	markDoneStep(3),
	dropStep(true, 2),
	appendStep(false, 4, 5), // wraps
	dropStep(true, 4),       // overtakes done, which stands at 4
	markDoneStep(4),         // nothing left to move: no persist
	markDoneStep(5),
	dropStep(false, 5),
	appendStep(true, 6, 7),
	dropStep(true, 6),
	dropStep(true, 9), // clamped to lastSeq
}

const scriptRegion = hdrSize + 1024

// checkRing compares an attached queue with the model and re-checks the
// invariants Attach promises.
func checkRing(q *Queue, want ringState) error {
	if q.head > q.done || q.done > q.tail || q.tail-q.head > q.cap || q.acked > q.lastSeq {
		return fmt.Errorf("invariants broken: head=%d done=%d tail=%d cap=%d acked=%d lastSeq=%d", q.head, q.done, q.tail, q.cap, q.acked, q.lastSeq)
	}
	inflight, pending, err := ranges(q)
	if err != nil {
		return err
	}
	got := ringState{recs: append(inflight, pending...), done: len(inflight), acked: q.Acked(), lastSeq: q.LastSeq()}
	if got.String() != want.String() {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	for i, r := range got.recs {
		if w := want.recs[i]; r.Name != w.Name || !bytes.Equal(r.Args, w.Args) {
			return fmt.Errorf("record seq %d came back altered", r.Seq)
		}
	}
	return nil
}

// cloneImage copies a region's (just power-failed, hence fully durable)
// contents into a fresh strict region.
func cloneImage(t testing.TB, img []byte) *nvm.Region {
	t.Helper()
	c, err := nvm.New(len(img), nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(0, img); err != nil {
		t.Fatal(err)
	}
	if err := c.Persist(0, len(img)); err != nil {
		t.Fatal(err)
	}
	return c
}

// runRingCrash runs the script and power-fails the region when it reaches
// fence number failAt (0: never), keeping the in-doubt lines keep selects.
// It returns the fences issued and the lines the failed fence left in doubt.
func runRingCrash(t *testing.T, failAt int, keep func(line int) bool) (fences int, inDoubt []int) {
	t.Helper()
	reg, err := nvm.New(scriptRegion, nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Format(reg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		image   []byte
		keptHdr bool
	)
	reg.SetFenceHook(func() {
		if fences++; fences != failAt {
			return
		}
		if err := reg.CrashPartial(func(line int) bool {
			inDoubt = append(inDoubt, line)
			keptHdr = keptHdr || (line == 0 && keep(line))
			return keep(line)
		}); err != nil {
			t.Fatal(err)
		}
		b, err := reg.ReadSlice(0, reg.Size())
		if err != nil {
			t.Fatal(err)
		}
		image = bytes.Clone(b)
	})
	var before, after ringState // around the step the power failed in
	current := "end of script"
	for _, st := range ringScript {
		after = st.model(before)
		err := st.do(q)
		if image != nil {
			current = st.name
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if err := checkRing(q, after); err != nil {
			t.Fatalf("after %s (no crash): %v", st.name, err)
		}
		before = after
	}
	reg.SetFenceHook(nil)
	// A step's last persist is its header line: the step took effect iff
	// that line survived. (A crash at the append's first fence has only
	// record lines in doubt, beyond the durable tail.)
	want := before
	if keptHdr {
		want = after
	}
	if image == nil {
		if err := reg.Crash(); err != nil {
			t.Fatal(err)
		}
		b, _ := reg.ReadSlice(0, reg.Size())
		image, want = bytes.Clone(b), after
	}
	recovered, err := Attach(cloneImage(t, image))
	if err != nil {
		t.Fatalf("fence %d in %s, in doubt %v: Attach: %v", failAt, current, inDoubt, err)
	}
	if err := checkRing(recovered, want); err != nil {
		t.Fatalf("fence %d in %s, in doubt %v, header kept %v: %v", failAt, current, inDoubt, keptHdr, err)
	}
	// The recovered ring is usable: the rest of a replica's life goes on.
	if err := recovered.AppendBatch([]Record{testRec(100)}); err != nil {
		t.Fatalf("fence %d in %s: append after recovery: %v", failAt, current, err)
	}
	return fences, inDoubt
}

func TestRingCrashPoints(t *testing.T) {
	total, _ := runRingCrash(t, 0, nil)
	if total == 0 {
		t.Fatal("script issued no fence")
	}
	points := 0
	for k := 1; k <= total; k++ {
		_, inDoubt := runRingCrash(t, k, func(int) bool { return false })
		runRingCrash(t, k, func(int) bool { return true })
		for _, only := range inDoubt {
			runRingCrash(t, k, func(line int) bool { return line == only })
		}
		points += 2 + len(inDoubt)
	}
	t.Logf("%d fences, %d crash points", total, points)
}

// TestAckThroughOnePersist pins the pruning cost: the floor, the head and a
// trailing done cursor share the header line and one fence, and a cursor
// that has nowhere to go costs nothing.
func TestAckThroughOnePersist(t *testing.T) {
	q := newQueue(t, 8192)
	if err := q.AppendBatch([]Record{testRec(1), testRec(2), testRec(3)}); err != nil {
		t.Fatal(err)
	}
	fences := func(op func() error) uint64 {
		t.Helper()
		before := q.reg.Stats()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		after := q.reg.Stats()
		if after.LinesFlushed-before.LinesFlushed != after.Fences-before.Fences {
			t.Errorf("flushed %d lines under %d fences, want the header line alone each time",
				after.LinesFlushed-before.LinesFlushed, after.Fences-before.Fences)
		}
		return after.Fences - before.Fences
	}
	for _, c := range []struct {
		name string
		op   func() error
		want uint64
	}{
		{"MarkDone(2)", func() error { return q.MarkDone(2) }, 1},
		{"MarkDone(2) again", func() error { return q.MarkDone(2) }, 0},
		{"AckThrough(1)", func() error { return q.AckThrough(1) }, 1},
		{"AckThrough(3) past done", func() error { return q.AckThrough(3) }, 1},
		{"AckThrough(3) again", func() error { return q.AckThrough(3) }, 0},
		{"MarkDone(3) overtaken", func() error { return q.MarkDone(3) }, 0},
	} {
		if got := fences(c.op); got != c.want {
			t.Errorf("%s: %d fences, want %d", c.name, got, c.want)
		}
	}
	if q.head != q.tail || q.done != q.tail || q.Acked() != 3 {
		t.Errorf("after full ack: head=%d done=%d tail=%d acked=%d", q.head, q.done, q.tail, q.Acked())
	}
}

// TestViews: the two ranges of the one ring, as the chain reads them.
func TestViews(t *testing.T) {
	q := newQueue(t, 8192)
	if err := q.AppendBatch([]Record{testRec(1), testRec(2), testRec(3)}); err != nil {
		t.Fatal(err)
	}
	if err := q.AppendExecuted([]Record{testRec(4)}); err == nil {
		t.Error("AppendExecuted behind pending records accepted")
	}
	if err := q.MarkDone(2); err != nil {
		t.Fatal(err)
	}
	fl, in := q.Usage()
	one := recSize(testRec(1))
	if fl != 2*one || in != one {
		t.Errorf("usage inflight %d pending %d, record size %d", fl, in, one)
	}
	if fl, pend, err := q.Spans(); err != nil || fl != (Span{2, 1, 2}) || pend != (Span{1, 3, 3}) {
		t.Errorf("Spans = %+v, %+v, %v; want 1..2 in flight, 3 pending", fl, pend, err)
	}
	if r, err := q.Cursor().Next(); err != nil || r.Seq != 3 {
		t.Errorf("cursor starts at %+v %v, want the oldest pending record, seq 3", r, err)
	}
	if err := q.MarkDone(3); err != nil {
		t.Fatal(err)
	}
	if err := q.AppendExecuted([]Record{testRec(4)}); err != nil {
		t.Fatal(err)
	}
	if recs, err := q.Inflight(); err != nil || len(recs) != 4 || recs[3].Seq != 4 {
		t.Errorf("Inflight = %v, %v", recs, err)
	}
	if recs, err := q.Pending(); err != nil || len(recs) != 0 {
		t.Errorf("Pending = %v, %v", recs, err)
	}
}

// scriptImages returns the durable image after every step of the script.
func scriptImages(t testing.TB) [][]byte {
	t.Helper()
	reg, err := nvm.New(scriptRegion, nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Format(reg)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, st := range ringScript {
		if err := st.do(q); err != nil {
			t.Fatal(err)
		}
		b, err := reg.ReadSlice(0, reg.Size())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bytes.Clone(b))
	}
	return out
}

// The nvm model writes a header line back only when it is persisted, so the
// enumeration above never sees one between two of a step's stores. Hardware
// may evict a dirty line whenever it likes: every step must therefore store
// its cursors in an order whose every prefix, over the records the step had
// already made durable, is an image Attach accepts and reads through. The
// order is read off the device trace, not assumed.
func TestHeaderStorePrefixesAttach(t *testing.T) {
	reg, err := nvm.New(scriptRegion, nvm.Options{Mode: nvm.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Format(reg)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1 << 12)
	reg.SetTracer(rec.Tracer("ring"))
	image := func() []byte {
		b, err := reg.ReadSlice(0, reg.Size())
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(b)
	}
	prev, seen, prefixes := image(), 0, 0
	for _, st := range ringScript {
		if err := st.do(q); err != nil {
			t.Fatal(err)
		}
		next, events := image(), rec.Events()
		img := bytes.Clone(next)
		copy(img[:hdrSize], prev[:hdrSize])
		for _, e := range events[seen:] {
			if e.Kind != trace.KindWrite || e.Off >= hdrSize {
				continue
			}
			copy(img[e.Off:e.Off+e.Len], next[e.Off:e.Off+e.Len])
			got, err := Attach(cloneImage(t, img))
			if err != nil {
				t.Fatalf("%s: header evicted after the store at %d: %v", st.name, e.Off, err)
			}
			if _, _, err := ranges(got); err != nil {
				t.Fatalf("%s: header evicted after the store at %d: %v", st.name, e.Off, err)
			}
			prefixes++
		}
		if !bytes.Equal(img, next) {
			t.Fatalf("%s: the traced stores do not add up to the step", st.name)
		}
		prev, seen = next, len(events)
	}
	if prefixes < len(ringScript) {
		t.Fatalf("only %d header stores traced over %d steps", prefixes, len(ringScript))
	}
}

// FuzzAttach feeds Attach images no crash produces: whatever the header
// words and record headers say, the answer is an error or a queue that
// keeps Attach's promises and can be read and written — never a panic, and
// never an access outside the region (the region reports those as errors,
// which a validated queue must not provoke).
func FuzzAttach(f *testing.F) {
	images := scriptImages(f)
	for _, img := range images {
		f.Add(img)
	}
	// Hand-made corruptions of a populated image (after "AppendBatch[3]":
	// head 0, done one record in, tail three records in).
	corrupt := func(edit func(img []byte)) {
		img := bytes.Clone(images[2])
		edit(img)
		f.Add(img)
	}
	word := func(off int, v uint64) func([]byte) {
		return func(img []byte) { binary.LittleEndian.PutUint64(img[off:], v) }
	}
	one := recSize(testRec(1))
	corrupt(word(hOffMagic, 0))
	corrupt(word(hOffCap, 1<<40))
	corrupt(word(hOffCap, 512))
	corrupt(word(hOffHead, 2*one))   // head past done
	corrupt(word(hOffDone, 4*one))   // done past tail
	corrupt(word(hOffDone, one+8))   // done inside a record
	corrupt(word(hOffTail, 1<<62))   // tail far beyond capacity
	corrupt(word(hOffTail, 3*one-8)) // tail inside a record
	corrupt(word(hOffHead, 1<<63))
	corrupt(func(img []byte) { // every cursor a record short of wrapping uint64
		for _, off := range []int{hOffHead, hOffDone, hOffTail} {
			binary.LittleEndian.PutUint64(img[off:], -one)
		}
	})
	corrupt(word(hOffAcked, 99))
	corrupt(word(hOffSeq, 1)) // records numbered past lastSeq
	field32 := func(off int, v uint32) func([]byte) {
		return func(img []byte) { binary.LittleEndian.PutUint32(img[hdrSize+off:], v) }
	}
	corrupt(field32(rOffSize, 0))
	corrupt(field32(rOffSize, 12))
	corrupt(field32(rOffSize, 1<<31))
	corrupt(field32(rOffArgsLen, 1<<30))
	corrupt(func(img []byte) { binary.LittleEndian.PutUint16(img[hdrSize+rOffNameLen:], 1<<15) })
	f.Add(images[2][:hdrSize+100])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) == 0 || len(img) > 1<<16 {
			return
		}
		q, err := Attach(cloneImage(t, img))
		if err != nil {
			return
		}
		must := func(what string, err error) {
			t.Helper()
			if errors.Is(err, nvm.ErrOutOfRange) {
				t.Fatalf("%s reached outside the region: %v", what, err)
			}
			if err != nil && !errors.Is(err, ErrFull) && !errors.Is(err, ErrEmpty) {
				t.Fatalf("%s on an image Attach accepted: %v", what, err)
			}
		}
		if q.head > q.done || q.done > q.tail || q.tail-q.head > q.cap || q.acked > q.lastSeq {
			t.Fatalf("invariants broken: head=%d done=%d tail=%d cap=%d acked=%d lastSeq=%d", q.head, q.done, q.tail, q.cap, q.acked, q.lastSeq)
		}
		inflight, pending, err := ranges(q)
		must("ranges", err)
		np := len(pending)
		for _, r := range append(inflight, pending...) {
			if r.Seq > q.lastSeq {
				t.Fatalf("record seq %d > lastSeq %d", r.Seq, q.lastSeq)
			}
		}
		cur := q.Cursor()
		for i := 0; i < np; i++ {
			_, err := cur.Next()
			must("Cursor.Next", err)
		}
		if _, err := cur.Next(); !errors.Is(err, ErrEmpty) {
			t.Fatalf("cursor past %d pending records: %v", np, err)
		}
		must("AppendBatch", q.AppendBatch([]Record{{Seq: q.lastSeq + 1, Name: "fuzz", Args: []byte("x")}}))
		must("MarkDone", q.MarkDone(q.lastSeq))
		must("AckThrough", q.AckThrough(q.lastSeq))
		if q.head != q.tail || q.done != q.tail {
			t.Fatalf("full acknowledgment left head=%d done=%d tail=%d", q.head, q.done, q.tail)
		}
	})
}

// BenchmarkAppend1 is the gated benchmark's pqueue.append1 rung: one 1 KiB
// record appended and, as the acknowledged prefix, dropped — 3 fences.
func BenchmarkAppend1(b *testing.B) { benchAppend(b, 1) }

// BenchmarkAppend16 is the gated benchmark's pqueue.append16 rung: a hop
// batch of sixteen such records — 3 fences an append, whatever it holds.
func BenchmarkAppend16(b *testing.B) { benchAppend(b, 16) }

// benchAppend appends batch 1 KiB records at a time and drops each batch as
// the acknowledged prefix, reporting the time a record and the fences and
// bytes an append.
func benchAppend(b *testing.B, batch int) {
	reg, err := nvm.New(4<<20, nvm.Options{Mode: nvm.ModeFast})
	if err != nil {
		b.Fatal(err)
	}
	q, err := Format(reg)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]Record, batch)
	for j := range recs {
		recs[j] = Record{Name: "kv.put", Args: make([]byte, 1032)}
	}
	var seq uint64
	before := reg.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			seq++
			recs[j].Seq = seq
		}
		if err := q.AppendBatch(recs); err != nil {
			b.Fatal(err)
		}
		if err := q.DropThrough(seq); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := reg.Stats()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/rec")
	b.ReportMetric(float64(after.Fences-before.Fences)/float64(b.N), "fences/op")
	b.ReportMetric(float64(after.BytesWritten-before.BytesWritten)/float64(b.N), "B-written/op")
}
