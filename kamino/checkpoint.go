package kamino

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"kaminotx/internal/engine"
)

// Index checkpointing.
//
// A pool's expensive volatile state — the dynamic backend's lookup table,
// pbtree node censuses — can be snapshotted into a versioned, CRC-guarded
// blob and restored on the next open, skipping the full scans that
// otherwise rebuild it. Validity is tied to the heap's image epoch
// (heap.Epoch): the blob records the epoch it was taken at, snapshotting
// arms the epoch guard, and the first transaction after a snapshot durably
// bumps the image epoch. A restored blob whose epoch no longer matches the
// image is simply ignored — stale checkpoints degrade recovery to the cold
// scans, they can never corrupt it.
//
// The blob lives in two places: a small dedicated NVM region (Strict
// pools; it survives Crash/CrashPartial like any fenced data) and an
// `index.ckpt` file next to the images of a file-backed pool (written by
// Checkpoint, read by Open). Both are best-effort caches of state that is
// always reconstructible.

// indexCkptFile is the blob's file name inside Options.Dir.
const indexCkptFile = "index.ckpt"

// backupIndexSection carries the kamino dynamic backend's encoded lookup
// table; other sections are registered by data structures via
// RegisterIndexSource.
const backupIndexSection = "backup.lru"

const (
	idxBlobMagic   = 0x5844494b // "KIDX"
	idxBlobVersion = 1
	// idxMaxSections bounds decode-side allocation from a corrupt count.
	idxMaxSections = 1 << 12
)

// encodeIndexBlob serializes sections under epoch:
//
//	magic u32 | version u32 | epoch u64 | nsec u32
//	nsec × (nameLen u16 | name | dataLen u32 | data)
//	crc32(IEEE, everything above) u32
//
// Section order is sorted by name so identical state encodes identically.
func encodeIndexBlob(epoch uint64, sections map[string][]byte) []byte {
	names := make([]string, 0, len(sections))
	for n := range sections {
		names = append(names, n)
	}
	sort.Strings(names)
	size := 4 + 4 + 8 + 4
	for _, n := range names {
		size += 2 + len(n) + 4 + len(sections[n])
	}
	buf := make([]byte, size, size+4)
	binary.LittleEndian.PutUint32(buf[0:], idxBlobMagic)
	binary.LittleEndian.PutUint32(buf[4:], idxBlobVersion)
	binary.LittleEndian.PutUint64(buf[8:], epoch)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(names)))
	off := 20
	for _, n := range names {
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(n)))
		off += 2
		copy(buf[off:], n)
		off += len(n)
		data := sections[n]
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(data)))
		off += 4
		copy(buf[off:], data)
		off += len(data)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeIndexBlob validates and parses an encoded blob.
func decodeIndexBlob(buf []byte) (epoch uint64, sections map[string][]byte, err error) {
	if len(buf) < 24 {
		return 0, nil, fmt.Errorf("kamino: index blob truncated (%d bytes)", len(buf))
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, nil, fmt.Errorf("kamino: index blob CRC mismatch")
	}
	if m := binary.LittleEndian.Uint32(body[0:]); m != idxBlobMagic {
		return 0, nil, fmt.Errorf("kamino: index blob bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != idxBlobVersion {
		return 0, nil, fmt.Errorf("kamino: index blob version %d (want %d)", v, idxBlobVersion)
	}
	epoch = binary.LittleEndian.Uint64(body[8:])
	nsec := binary.LittleEndian.Uint32(body[16:])
	if nsec > idxMaxSections {
		return 0, nil, fmt.Errorf("kamino: index blob claims %d sections", nsec)
	}
	sections = make(map[string][]byte, nsec)
	off := 20
	for i := uint32(0); i < nsec; i++ {
		if off+2 > len(body) {
			return 0, nil, fmt.Errorf("kamino: index blob section %d truncated", i)
		}
		nl := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+nl+4 > len(body) {
			return 0, nil, fmt.Errorf("kamino: index blob section %d truncated", i)
		}
		name := string(body[off : off+nl])
		off += nl
		dl := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if dl < 0 || off+dl > len(body) {
			return 0, nil, fmt.Errorf("kamino: index blob section %q truncated", name)
		}
		if _, dup := sections[name]; dup {
			return 0, nil, fmt.Errorf("kamino: index blob duplicate section %q", name)
		}
		sections[name] = append([]byte(nil), body[off:off+dl]...)
		off += dl
	}
	if off != len(body) {
		return 0, nil, fmt.Errorf("kamino: index blob has %d trailing bytes", len(body)-off)
	}
	return epoch, sections, nil
}

// indexRegionBytes sizes the dedicated index-checkpoint region for a
// strict pool: generous relative to the heap (censuses and lookup tables
// are a few tens of bytes per object) with a floor for small heaps. Blobs
// that outgrow it are dropped (cold recovery), never truncated.
func indexRegionBytes(heapSize int) int {
	n := heapSize / 16
	if n < 1<<20 {
		n = 1 << 20
	}
	return n
}

// RegisterIndexSource publishes a named producer of index-checkpoint
// state. fn runs inside Checkpoint/SnapshotIndex with transactions
// quiesced and must return a self-validating encoding (its consumer sees
// it again only through IndexSection, epoch-guarded). Registering a name
// again replaces the producer — reattaching a structure after reopen keeps
// the latest binding. A failing producer drops its section from that
// snapshot (counted by index_ckpt_source_errors) without failing the
// checkpoint.
func (p *Pool) RegisterIndexSource(name string, fn func() ([]byte, error)) {
	p.idxMu.Lock()
	defer p.idxMu.Unlock()
	if p.idxSources == nil {
		p.idxSources = make(map[string]func() ([]byte, error))
	}
	p.idxSources[name] = fn
}

// IndexSection returns the named section of the restored index checkpoint,
// if the pool reopened with one and it is still image-valid: the snapshot's
// epoch must equal the heap's current image epoch, which holds only until
// the first transaction of this incarnation (the epoch guard is armed at
// attach). Consumers therefore read their section while attaching, before
// running any transaction.
func (p *Pool) IndexSection(name string) ([]byte, bool) {
	p.idxMu.Lock()
	defer p.idxMu.Unlock()
	if p.idxStash == nil || p.idxStashEpoch != p.Engine().Heap().Epoch() {
		return nil, false
	}
	data, ok := p.idxStash[name]
	return data, ok
}

// collectIndex gathers every registered section plus the engine's backup
// index into an encoded blob stamped with the current image epoch. Nil
// when there is nothing to snapshot. The caller must have quiesced
// transactions and armed the epoch guard.
func (p *Pool) collectIndex() []byte {
	p.idxMu.Lock()
	sources := make(map[string]func() ([]byte, error), len(p.idxSources))
	for n, fn := range p.idxSources {
		sources[n] = fn
	}
	p.idxMu.Unlock()
	eng := p.Engine()
	sections := make(map[string][]byte, len(sources)+1)
	for name, fn := range sources {
		data, err := fn()
		if err != nil || data == nil {
			eng.Obs().Counter("index_ckpt_source_errors").Inc()
			continue
		}
		sections[name] = data
	}
	if enc, ok := eng.(interface{ EncodeBackupIndex() ([]byte, bool) }); ok {
		if data, ok := enc.EncodeBackupIndex(); ok {
			sections[backupIndexSection] = data
		}
	}
	if len(sections) == 0 {
		return nil
	}
	return encodeIndexBlob(eng.Heap().Epoch(), sections)
}

// storeIndexBlob persists blob to every durable home the pool has: the
// index NVM region (strict pools) and Dir/index.ckpt (file-backed pools,
// written atomically via rename). A blob too large for the NVM region is
// skipped there (counted), not an error; file write failures are.
func (p *Pool) storeIndexBlob(blob []byte) error {
	if p.idxBB != nil {
		if len(blob) <= p.idxBB.Capacity() {
			if err := p.idxBB.Store(blob); err != nil {
				return err
			}
		} else {
			p.Engine().Obs().Counter("index_ckpt_overflow").Inc()
		}
	}
	if dir := p.opts.Dir; dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		tmp := filepath.Join(dir, indexCkptFile+".tmp")
		if err := os.WriteFile(tmp, blob, 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, filepath.Join(dir, indexCkptFile)); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotIndex checkpoints the pool's volatile index state: it drains
// asynchronous work, arms the heap's epoch guard, collects every
// registered index source (plus the dynamic backend's lookup table), and
// stores the encoded blob durably. The guard ordering makes validity
// exact under any interleaving — a transaction that slips in after arming
// bumps the image epoch, so the blob it raced with can never be restored
// as current.
//
// Callers should stop issuing transactions for the duration (kaminod uses
// server.Quiesce); Checkpoint calls this automatically.
func (p *Pool) SnapshotIndex() error {
	eng := p.Engine()
	eng.Drain()
	eng.Heap().ArmEpoch()
	blob := p.collectIndex()
	if blob == nil {
		return nil
	}
	return p.storeIndexBlob(blob)
}

// loadIndexStash decodes raw into the restored-snapshot stash consulted by
// IndexSection and makeEngine. Any decode failure leaves the stash empty
// (cold recovery).
func (p *Pool) loadIndexStash(raw []byte) {
	p.idxStash, p.idxStashEpoch = nil, 0
	if len(raw) == 0 {
		return
	}
	epoch, sections, err := decodeIndexBlob(raw)
	if err != nil {
		return
	}
	p.idxStash, p.idxStashEpoch = sections, epoch
}

// RecoveryReport returns the staged-pipeline timings of the engine open
// that produced the current incarnation — nil for a freshly created pool
// or an engine that does not report stages. kaminod logs it; the recovery
// benchmark attributes time-to-first-transaction with it.
func (p *Pool) RecoveryReport() []engine.StageReport {
	if r, ok := p.Engine().(interface{ RecoveryReport() []engine.StageReport }); ok {
		return r.RecoveryReport()
	}
	return nil
}
