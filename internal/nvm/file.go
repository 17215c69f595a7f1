package nvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"syscall"
)

// File-backed regions.
//
// A region can live in a file that is mapped MAP_SHARED, so the bytes the
// region holds durably are bytes of the file's page cache: a process killed
// at any instant leaves behind exactly what its regions held durably at that
// instant, and the recovery written for a simulated power failure runs over
// a real process death.
//
//   - Fast mode: the volatile view is the mapping. Every write reaches the
//     file as it is made, as on real NVM whose caches drain after the
//     process dies.
//   - Strict mode: the durable image is the mapping. The volatile view is
//     anonymous memory copied from it at open, and Fence drains lines into
//     the mapping, so a killed strict process leaves what a power failure
//     at that instant would (Crash).
//
// The file is a 24-byte header — magic, image size, a checksum field that
// is neither written nor checked, pad — followed by the image.

const (
	fileMagic   = 0x4b414d494e4f3158 // "KAMINO1X"
	fileHdrSize = 8 + 8 + 4 + 4      // magic, size, checksum (unused), pad
)

// CreateFile creates or truncates the file at path to hold a zero-filled
// region of size bytes and maps it; the header goes through the mapping,
// so Close writes it back with the image.
func CreateFile(path string, size int, opts Options) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("nvm: region size %d must be positive", size)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("nvm: create %s: %w", path, err)
	}
	defer f.Close()
	if err := f.Truncate(int64(fileHdrSize + size)); err != nil {
		return nil, fmt.Errorf("nvm: create %s: %w", path, err)
	}
	r, err := mapFile(f, size, opts)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(r.mapping[0:], fileMagic)
	binary.LittleEndian.PutUint64(r.mapping[8:], uint64(size))
	return r, nil
}

// OpenFile maps the region file at path, which must carry the magic and
// an image of exactly size bytes.
func OpenFile(path string, size int, opts Options) (*Region, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("nvm: open %s: %w", path, err)
	}
	defer f.Close()
	hdr := make([]byte, fileHdrSize)
	fi, err := f.Stat()
	if err == nil {
		_, err = f.ReadAt(hdr, 0)
	}
	switch {
	case err != nil:
	case binary.LittleEndian.Uint64(hdr) != fileMagic:
		err = errors.New("bad magic")
	case size <= 0 || binary.LittleEndian.Uint64(hdr[8:]) != uint64(size) || fi.Size() != int64(fileHdrSize+size):
		err = fmt.Errorf("not an image of %d bytes (header says %d, file holds %d)", size, binary.LittleEndian.Uint64(hdr[8:]), fi.Size())
	}
	if err != nil {
		return nil, fmt.Errorf("nvm: open %s: %w", path, err)
	}
	return mapFile(f, size, opts)
}

// mapFile maps f, whose image is size bytes after the header, and builds
// the region over it. The mapping outlives f.
func mapFile(f *os.File, size int, opts Options) (*Region, error) {
	m, err := syscall.Mmap(int(f.Fd()), 0, fileHdrSize+size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("nvm: map %s: %w", f.Name(), err)
	}
	r := newRegion(size, opts)
	img := m[fileHdrSize : fileHdrSize+size : fileHdrSize+size]
	if r.mode == ModeStrict {
		r.durable = img
		r.mem = make([]byte, size)
		copy(r.mem, img)
	} else {
		r.mem = img
	}
	r.mapping = m
	return r, nil
}

// Close writes a file-backed region's mapping back to its file with one
// msync and unmaps it. The region must not be used afterwards. A region
// held in memory has nothing to release.
func (r *Region) Close() error {
	if r.mapping == nil {
		return nil
	}
	var err error
	addr := reflect.ValueOf(r.mapping).Pointer()
	if _, _, errno := syscall.Syscall(syscall.SYS_MSYNC, addr, uintptr(len(r.mapping)), syscall.MS_SYNC); errno != 0 {
		err = fmt.Errorf("nvm: msync: %w", errno)
	}
	if uerr := syscall.Munmap(r.mapping); err == nil {
		err = uerr
	}
	r.mapping, r.mem, r.durable = nil, nil, nil
	return err
}
