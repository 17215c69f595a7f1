package nvm

import (
	"fmt"
	"hash/crc32"
)

// blackboxMagic marks a valid envelope ("KAMBBX01").
const blackboxMagic = 0x4b414d4242583031

// blackboxHeaderSize reserves one full cache line for the header so the
// header store can never straddle a line with payload bytes.
const blackboxHeaderSize = LineSize

// Blackbox is a small reserved span of simulated NVM holding one opaque
// record: it is the envelope under a strict pool's index checkpoint (the
// KIDX blob of kamino/checkpoint.go), which must outlive Crash and
// CrashPartial the way data does. Store persists the payload
// before publishing the header (magic, length, CRC32), so a crash during
// Store leaves either the previous record or an envelope that fails
// validation — never a valid header over torn payload. A record written
// by Store is flushed and fenced line by line, so it survives both Crash
// and CrashPartial regardless of the partial-persistence keep function.
//
// The blackbox carries no tracer: its device traffic is off the
// transaction path the trace describes.
type Blackbox struct {
	reg *Region
}

// NewBlackbox creates a blackbox able to hold payloads up to payloadCap
// bytes. Strict mode is required (the envelope only matters across
// simulated crashes).
func NewBlackbox(payloadCap int, opts Options) (*Blackbox, error) {
	if opts.Mode != ModeStrict {
		return nil, ErrFastMode
	}
	if payloadCap <= 0 {
		return nil, fmt.Errorf("nvm: blackbox payload capacity %d must be positive", payloadCap)
	}
	reg, err := New(blackboxHeaderSize+payloadCap, opts)
	if err != nil {
		return nil, err
	}
	return &Blackbox{reg: reg}, nil
}

// Region exposes the underlying region (crash propagation, tests).
func (b *Blackbox) Region() *Region { return b.reg }

// Capacity returns the largest payload Store accepts.
func (b *Blackbox) Capacity() int { return b.reg.Size() - blackboxHeaderSize }

// Store durably replaces the record with p: payload first (flush+fence),
// then the validating header. An oversized payload is an error and
// leaves the previous record intact.
func (b *Blackbox) Store(p []byte) error {
	if len(p) > b.Capacity() {
		return fmt.Errorf("nvm: blackbox payload %d exceeds capacity %d", len(p), b.Capacity())
	}
	// Invalidate the header first so a crash mid-payload cannot pair the
	// old header with mixed payload bytes.
	if err := b.reg.Store64(0, 0); err != nil {
		return err
	}
	if err := b.reg.Persist(0, blackboxHeaderSize); err != nil {
		return err
	}
	if len(p) > 0 {
		if err := b.reg.Write(blackboxHeaderSize, p); err != nil {
			return err
		}
		if err := b.reg.Persist(blackboxHeaderSize, len(p)); err != nil {
			return err
		}
	}
	if err := b.reg.Store64(8, uint64(len(p))); err != nil {
		return err
	}
	if err := b.reg.Store32(16, crc32.ChecksumIEEE(p)); err != nil {
		return err
	}
	if err := b.reg.Store64(0, blackboxMagic); err != nil {
		return err
	}
	return b.reg.Persist(0, blackboxHeaderSize)
}

// Retrieve returns a copy of the stored record, or ok=false when the
// blackbox is empty or fails validation (bad magic, impossible length,
// CRC mismatch).
func (b *Blackbox) Retrieve() ([]byte, bool) {
	magic, err := b.reg.Load64(0)
	if err != nil || magic != blackboxMagic {
		return nil, false
	}
	n, err := b.reg.Load64(8)
	if err != nil || n > uint64(b.Capacity()) {
		return nil, false
	}
	want, err := b.reg.Load32(16)
	if err != nil {
		return nil, false
	}
	p := make([]byte, int(n))
	if err := b.reg.Read(blackboxHeaderSize, p); err != nil {
		return nil, false
	}
	if crc32.ChecksumIEEE(p) != want {
		return nil, false
	}
	return p, true
}

// Clear durably invalidates the record.
func (b *Blackbox) Clear() error {
	if err := b.reg.Store64(0, 0); err != nil {
		return err
	}
	return b.reg.Persist(0, blackboxHeaderSize)
}

// Crash forwards a power failure to the underlying region; keep selects
// CrashPartial semantics when non-nil. A record published by Store is
// fenced and therefore survives either way.
func (b *Blackbox) Crash(keep func(line int) bool) error {
	if keep == nil {
		return b.reg.Crash()
	}
	return b.reg.CrashPartial(keep)
}
