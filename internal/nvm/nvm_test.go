package nvm

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func newStrict(t *testing.T, size int) *Region {
	t.Helper()
	r, err := New(size, Options{Mode: ModeStrict})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := newStrict(t, 1024)
	want := []byte("hello, persistent world")
	if err := r.Write(100, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(want))
	if err := r.Read(100, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Read = %q, want %q", got, want)
	}
}

func TestOutOfRange(t *testing.T) {
	r := newStrict(t, 128)
	cases := []struct {
		name string
		err  error
	}{
		{"write past end", r.Write(120, make([]byte, 16))},
		{"negative offset", r.Write(-1, []byte{1})},
		{"read past end", r.Read(128, make([]byte, 1))},
		{"zero past end", r.Zero(100, 100)},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: got nil error", c.name)
		}
	}
}

func TestUnflushedWriteLostOnCrash(t *testing.T) {
	r := newStrict(t, 256)
	if err := r.Write(0, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := r.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Errorf("unflushed write survived crash: %v", got)
	}
}

func TestFlushWithoutFenceLostOnCrash(t *testing.T) {
	r := newStrict(t, 256)
	if err := r.Write(0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(0, 1); err != nil {
		t.Fatal(err)
	}
	// No fence: pessimistic crash loses the line.
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if err := r.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Errorf("flushed-unfenced write survived pessimistic crash")
	}
}

func TestPersistSurvivesCrash(t *testing.T) {
	r := newStrict(t, 256)
	want := []byte{7, 7, 7}
	if err := r.Write(64, want); err != nil {
		t.Fatal(err)
	}
	if err := r.Persist(64, 3); err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := r.Read(64, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("persisted write lost on crash: %v", got)
	}
}

func TestRedirtyAfterFlushNotPersistedByFence(t *testing.T) {
	r := newStrict(t, 256)
	if err := r.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(0, 1); err != nil {
		t.Fatal(err)
	}
	// Overwrite the same line after the flush but before the fence. The
	// fence must not persist the *new* value, because the new store was
	// never flushed.
	if err := r.Write(0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	r.Fence()
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if err := r.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] == 2 {
		t.Errorf("unflushed overwrite survived crash via stale pending state")
	}
}

func TestCrashPartialKeepsSelectedLines(t *testing.T) {
	r := newStrict(t, 4*LineSize)
	for line := 0; line < 4; line++ {
		if err := r.Write(line*LineSize, []byte{byte(line + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(0, 4*LineSize); err != nil {
		t.Fatal(err)
	}
	// Keep even lines only.
	if err := r.CrashPartial(func(line int) bool { return line%2 == 0 }); err != nil {
		t.Fatal(err)
	}
	for line := 0; line < 4; line++ {
		got := make([]byte, 1)
		if err := r.Read(line*LineSize, got); err != nil {
			t.Fatal(err)
		}
		want := byte(0)
		if line%2 == 0 {
			want = byte(line + 1)
		}
		if got[0] != want {
			t.Errorf("line %d after partial crash = %d, want %d", line, got[0], want)
		}
	}
}

func TestIsPersisted(t *testing.T) {
	r := newStrict(t, 256)
	if err := r.Write(0, []byte{5}); err != nil {
		t.Fatal(err)
	}
	ok, err := r.IsPersisted(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("dirty write reported as persisted")
	}
	if err := r.Persist(0, 1); err != nil {
		t.Fatal(err)
	}
	ok, err = r.IsPersisted(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("persisted write reported as not persisted")
	}
}

func TestStore64Load64(t *testing.T) {
	r := newStrict(t, 128)
	if err := r.Store64(8, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	v, err := r.Load64(8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeefcafef00d {
		t.Errorf("Load64 = %#x", v)
	}
}

func TestStore32Load32(t *testing.T) {
	r := newStrict(t, 128)
	if err := r.Store32(4, 0xfeedface); err != nil {
		t.Fatal(err)
	}
	v, err := r.Load32(4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xfeedface {
		t.Errorf("Load32 = %#x", v)
	}
}

func TestCopyBetweenRegions(t *testing.T) {
	src := newStrict(t, 256)
	dst := newStrict(t, 256)
	want := []byte("copy me")
	if err := src.Write(10, want); err != nil {
		t.Fatal(err)
	}
	if err := Copy(dst, 20, src, 10, len(want)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := dst.Read(20, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Copy result = %q, want %q", got, want)
	}
	// Copy is a write on dst: must be lost if not persisted.
	if err := dst.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := dst.Read(20, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		t.Error("unpersisted Copy survived crash")
	}
}

func TestZero(t *testing.T) {
	r := newStrict(t, 256)
	if err := r.Write(0, bytes.Repeat([]byte{0xff}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := r.Zero(16, 32); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if err := r.Read(0, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		want := byte(0xff)
		if i >= 16 && i < 48 {
			want = 0
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestReadSliceAliasesVolatileView(t *testing.T) {
	r := newStrict(t, 128)
	if err := r.Write(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	s, err := r.ReadSlice(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Write(1, []byte{42}); err != nil {
		t.Fatal(err)
	}
	if s[1] != 42 {
		t.Error("ReadSlice does not alias volatile view")
	}
}

func TestFastModeCrashUnsupported(t *testing.T) {
	r, err := New(128, Options{Mode: ModeFast})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(); err == nil {
		t.Error("Crash on fast-mode region did not error")
	}
	if _, err := r.IsPersisted(0, 1); err == nil {
		t.Error("IsPersisted on fast-mode region did not error")
	}
}

func TestStatsCounters(t *testing.T) {
	r := newStrict(t, 1024)
	if err := r.Write(0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(0, 100); err != nil {
		t.Fatal(err)
	}
	r.Fence()
	if s, want := r.Stats(), (Stats{BytesWritten: 100, LinesFlushed: 2, Fences: 1}); s != want {
		t.Errorf("stats %+v, want %+v", s, want)
	}
}

func TestLinesHelper(t *testing.T) {
	cases := []struct {
		off, n, want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 64, 1},
		{0, 65, 2},
		{63, 2, 2},
		{64, 64, 1},
		{10, 200, 4},
	}
	for _, c := range cases {
		if got := lines(c.off, c.n); got != c.want {
			t.Errorf("lines(%d, %d) = %d, want %d", c.off, c.n, got, c.want)
		}
	}
}

// TestFileRegionRoundTrip: a file-backed region's file holds what the
// region holds durably while it is still mapped — what a killed process
// leaves — and reopens with it. In strict mode that is the fenced bytes
// only; in fast mode every write.
func TestFileRegionRoundTrip(t *testing.T) {
	for _, mode := range []Mode{ModeStrict, ModeFast} {
		path := filepath.Join(t.TempDir(), "region.img")
		r, err := CreateFile(path, 512, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Write(7, []byte("durable")); err != nil {
			t.Fatal(err)
		}
		if err := r.Persist(7, 7); err != nil {
			t.Fatal(err)
		}
		if err := r.Write(200, []byte("volatile")); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(file) != fileHdrSize+512 || string(file[fileHdrSize+7:][:7]) != "durable" {
			t.Fatalf("%s: file of %d bytes lacks the persisted write", mode, len(file))
		}
		if got := string(file[fileHdrSize+200:][:8]) == "volatile"; got != (mode == ModeFast) {
			t.Errorf("%s: unfenced write in the file = %v", mode, got)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		r2, err := OpenFile(path, 512, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 7)
		if err := r2.Read(7, got); err != nil || string(got) != "durable" {
			t.Errorf("%s: reopened data = %q, %v", mode, got, err)
		}
		if err := r2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenFileRejectsBadHeader: a file is mapped only when its header
// carries the magic and the expected size and its length matches.
func TestOpenFileRejectsBadHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "region.img")
	r, err := CreateFile(path, 128, Options{Mode: ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		edit func([]byte) []byte
		size int
	}{
		"bad magic":    {func(b []byte) []byte { b[0] ^= 0xff; return b }, 128},
		"size field":   {func(b []byte) []byte { b[8] = 64; return b }, 128},
		"other size":   {func(b []byte) []byte { return b }, 256},
		"truncated":    {func(b []byte) []byte { return b[:fileHdrSize+100] }, 128},
		"short header": {func(b []byte) []byte { return b[:10] }, 128},
		"zero size":    {func(b []byte) []byte { return b }, 0},
	} {
		p := filepath.Join(dir, "bad.img")
		if err := os.WriteFile(p, c.edit(bytes.Clone(good)), 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := OpenFile(p, c.size, Options{Mode: ModeStrict}); err == nil {
			r.Close()
			t.Errorf("%s: OpenFile accepted the file", name)
		}
	}
	if r, err := OpenFile(path, 128, Options{Mode: ModeStrict}); err != nil {
		t.Errorf("the unedited file: %v", err)
	} else {
		r.Close()
	}
}

// PROPERTY: for any sequence of writes and persists, the post-crash state
// equals a model where Persist(off, n) makes every cache line overlapping
// [off, off+n) durable with its then-current volatile contents.
func TestPropertyPersistedWritesSurviveCrash(t *testing.T) {
	const size = 4096
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, err := New(size, Options{Mode: ModeStrict})
		if err != nil {
			return false
		}
		cur := make([]byte, size)   // mirror of the volatile view
		model := make([]byte, size) // expected durable image
		for i := 0; i < 60; i++ {
			off := rng.Intn(size - 100)
			n := 1 + rng.Intn(90)
			data := make([]byte, n)
			rng.Read(data)
			if err := r.Write(off, data); err != nil {
				return false
			}
			copy(cur[off:], data)
			if rng.Intn(2) == 0 {
				if err := r.Persist(off, n); err != nil {
					return false
				}
				// Persistence is line-granular: the whole
				// covering lines become durable.
				start := off / LineSize * LineSize
				end := (off + n + LineSize - 1) / LineSize * LineSize
				if end > size {
					end = size
				}
				copy(model[start:end], cur[start:end])
			}
		}
		if err := r.Crash(); err != nil {
			return false
		}
		got := make([]byte, size)
		if err := r.Read(0, got); err != nil {
			return false
		}
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentPersistDisjointLines drives many goroutines through
// Write+Persist on disjoint cache lines of a strict-mode region, then
// crashes: every persist that returned must survive. Under -race this also
// proves concurrent persists share no unsynchronized state.
func TestConcurrentPersistDisjointLines(t *testing.T) {
	const lines = 128
	r := newStrict(t, lines*LineSize)
	var wg sync.WaitGroup
	errs := make(chan error, lines)
	for l := 0; l < lines; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			off := l * LineSize
			val := bytes.Repeat([]byte{byte(l + 1)}, LineSize)
			for i := 0; i < 20; i++ {
				if err := r.Write(off, val); err != nil {
					errs <- err
					return
				}
				if err := r.Persist(off, LineSize); err != nil {
					errs <- err
					return
				}
			}
		}(l)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lines; l++ {
		got, err := r.ReadSlice(l*LineSize, LineSize)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(l+1) || got[LineSize-1] != byte(l+1) {
			t.Errorf("line %d lost its persisted value after crash: % x...", l, got[:4])
		}
	}
}

// TestCrashDuringConcurrentPersists injects a crash while persists are in
// flight. Crash takes the line mutex, so this must never deadlock;
// afterwards each line holds either its persisted value or its
// pre-write state — never a torn mix within one persist that returned
// before the crash.
func TestCrashDuringConcurrentPersists(t *testing.T) {
	const lines = 64
	r := newStrict(t, lines*LineSize)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for l := 0; l < lines; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			off := l * LineSize
			val := bytes.Repeat([]byte{0xab}, LineSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := r.Write(off, val); err != nil {
					return
				}
				if err := r.Persist(off, LineSize); err != nil {
					return
				}
			}
		}(l)
	}
	runtime.Gosched()
	if err := r.Crash(); err != nil {
		t.Fatalf("Crash with persists in flight: %v", err)
	}
	close(stop)
	wg.Wait()
	// Writers raced the crash, so a line may hold either image — but
	// never a foreign or torn byte, and the region must stay usable.
	for l := 0; l < lines; l++ {
		got, err := r.ReadSlice(l*LineSize, LineSize)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 0 && got[0] != 0xab {
			t.Errorf("line %d holds foreign byte %#x", l, got[0])
		}
	}
}
