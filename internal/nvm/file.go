package nvm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// File-backed region images.
//
// The simulator holds regions in process memory; to give examples and tools
// real durability across process restarts, a region's durable image can be
// checkpointed to a file and reloaded. The file holds a small header with a
// CRC of the image so torn checkpoints are detected; Save writes to a
// temporary file and renames it into place, so a crash during Save leaves
// the previous checkpoint intact.

const (
	fileMagic   = 0x4b414d494e4f3158 // "KAMINO1X"
	fileHdrSize = 8 + 8 + 4 + 4      // magic, size, crc, pad
)

// Save checkpoints the region's durable state to path atomically.
// In strict mode the durable image is written; in fast mode the volatile
// view is written (fast mode treats all writes as durable).
func (r *Region) Save(path string) error {
	var img []byte
	if r.mode == ModeStrict {
		// Snapshot under the line mutex so no fence is mid-drain while the
		// durable image is copied.
		r.mu.Lock()
		img = make([]byte, r.size)
		copy(img, r.durable)
		r.mu.Unlock()
	} else {
		img = r.mem
	}
	hdr := make([]byte, fileHdrSize)
	binary.LittleEndian.PutUint64(hdr[0:], fileMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(r.size))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(img))

	if err := WriteFileAtomic(path, hdr, img); err != nil {
		return fmt.Errorf("nvm: save %s: %w", path, err)
	}
	return nil
}

// WriteFileAtomic replaces path with the concatenation of chunks: written
// to path+".tmp", fsynced, renamed into place. A kill at any point leaves
// the old file or the new one, never a truncated one.
func WriteFileAtomic(path string, chunks ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err = f.Write(c); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Load creates a region from a checkpoint written by Save. The loaded image
// becomes both the volatile view and (in strict mode) the durable image.
func Load(path string, opts Options) (*Region, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nvm: load %s: %w", path, err)
	}
	defer f.Close()
	hdr := make([]byte, fileHdrSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, fmt.Errorf("nvm: load %s: bad header: %w", path, err)
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != fileMagic {
		return nil, fmt.Errorf("nvm: load %s: bad magic", path)
	}
	size := int(binary.LittleEndian.Uint64(hdr[8:]))
	wantCRC := binary.LittleEndian.Uint32(hdr[16:])
	r, err := New(size, opts)
	if err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(f, r.mem); err != nil {
		return nil, fmt.Errorf("nvm: load %s: truncated image: %w", path, err)
	}
	if crc32.ChecksumIEEE(r.mem) != wantCRC {
		return nil, fmt.Errorf("nvm: load %s: checksum mismatch (torn checkpoint?)", path)
	}
	if r.mode == ModeStrict {
		copy(r.durable, r.mem)
	}
	return r, nil
}
