package kamino_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"kaminotx/kamino"
)

// FuzzOpenDir feeds Open the bytes a restart reads from disk besides the
// images themselves: an arbitrary pool.json, and a main.img header cut short
// or overwritten. Open must answer with an error or a pool that maps exactly
// the files' sizes, commits a transaction and closes — never a panic.
func FuzzOpenDir(f *testing.F) {
	src := f.TempDir()
	pool, err := kamino.Create(kamino.Options{HeapSize: 64 << 10, LogSlots: 4, LogEntriesPerSlot: 8, ApplierWorkers: 1, Dir: src})
	if err != nil {
		f.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range []string{"pool.json", "main.img", "backup.img", "log.img"} {
		if files[name], err = os.ReadFile(filepath.Join(src, name)); err != nil {
			f.Fatal(err)
		}
	}
	meta, hdr := files["pool.json"], files["main.img"][:24]
	edit := func(b []byte, old, new string) []byte { return bytes.Replace(b, []byte(old), []byte(new), 1) }
	f.Add(meta, hdr)
	f.Add([]byte("{}"), hdr)
	f.Add(meta[:len(meta)/2], hdr)
	f.Add(edit(meta, "kamino-simple", "undo"), hdr)
	f.Add(edit(meta, "kamino-simple", "nolog"), hdr)
	f.Add(edit(meta, "65536", "32768"), hdr)
	f.Add(edit(meta, `"applier_workers": 1`, `"applier_workers": 1000000000`), hdr)
	f.Add(edit(meta, `"log_slots": 4`, `"log_slots": -4`), hdr)
	f.Add(meta, hdr[:10])
	f.Add(meta, []byte{})
	f.Add(meta, append(bytes.Clone(hdr[:8]), 0, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0, 0)) // a vast size

	f.Fuzz(func(t *testing.T, meta, hdr []byte) {
		if len(meta) > 4096 || len(hdr) > 24 {
			return
		}
		dir := t.TempDir()
		main := hdr
		if len(hdr) == 24 {
			main = append(bytes.Clone(hdr), files["main.img"][24:]...)
		}
		for name, b := range map[string][]byte{"pool.json": meta, "main.img": main, "backup.img": files["backup.img"], "log.img": files["log.img"]} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		pool, err := kamino.Open(dir)
		if err != nil {
			return
		}
		defer pool.Close()
		for i, r := range pool.Regions() {
			name := []string{"main.img", "backup.img", "log.img"}[i]
			if r.Size()+24 != len(files[name]) {
				t.Fatalf("%s mapped as %d bytes, the file holds an image of %d", name, r.Size(), len(files[name])-24)
			}
		}
		err = pool.Update(func(tx *kamino.Tx) error {
			if err := tx.Add(pool.Root()); err != nil {
				return err
			}
			return tx.SetString(pool.Root(), 0, "after a fuzzed open")
		})
		if err != nil {
			t.Fatalf("a pool Open accepted cannot commit: %v", err)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
