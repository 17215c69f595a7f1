package heap

import "fmt"

// Rescan rebuilds the volatile free lists from the persistent block
// headers: one walk of every header from DataStart to the bump pointer
// (blocks are variable-size and back-to-back, so the stream is
// self-describing only front to back). No block may reach past the bump,
// which is only ever persisted over whole, formatted blocks. Each class's
// free list is in address order, so two rescans of the same persistent
// image always produce identical lists. Not safe
// concurrently with allocation (run it before transactions, as Open and
// engine recovery do).
func (h *Heap) Rescan() error {
	found := make(map[int][]ObjID)
	off, bump := uint64(DataStart), h.bump.Load()
	for off < bump {
		size, err := h.reg.Load32(int(off) + bhSize)
		if err != nil {
			return err
		}
		state, err := h.loadState(int(off))
		if err != nil {
			return err
		}
		if size == 0 || size%blockAlign != 0 || int(size) > MaxAlloc ||
			off+BlockHeaderSize+uint64(size) > bump ||
			(state != stateFree && state != stateAlloc) {
			return fmt.Errorf("%w: block at %d size=%d state=%d bump=%d",
				ErrCorruptScan, off, size, state, bump)
		}
		if state == stateFree {
			found[int(size)] = append(found[int(size)], ObjID(off+BlockHeaderSize))
		}
		off += BlockHeaderSize + uint64(size)
	}
	h.mu.Lock()
	h.free = found
	h.mu.Unlock()
	return nil
}

// FreeListSnapshot deep-copies the free lists: snapshot[cls] is class cls's
// list, in list order. Test and fuzz hook for comparing the allocator state
// two rescans produced.
func (h *Heap) FreeListSnapshot() map[int][]ObjID {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int][]ObjID, len(h.free))
	for cls, list := range h.free {
		out[cls] = append([]ObjID(nil), list...)
	}
	return out
}
