package core

import (
	"fmt"

	"poseidon/internal/memblock"
)

// Metadata mirror: each sub-heap keeps a checksummed shadow of its critical
// header state — the active hash-table level count and every size class's
// free-list anchors — in the spare space of its header page (layout.go,
// shMirrorOff). The mirror is what lets repair restore a corrupt primary
// header instead of benching the whole sub-heap: interior record fields are
// re-derivable by walking the table, but the level count and list anchors
// are authoritative only in the header, so they get a second copy.
//
// The two mirror slots form a plog.GenSlots pair whose body is the level
// count, the class count and a head/tail pair per class; the geometry,
// level and anchor checks below are the pair's body check. Updates are
// paced (every mirrorInterval committed mutations, plus every structural
// commit point) and strictly best-effort: a failed or skipped update just
// leaves an older — still self-consistent — image behind, and repair
// audits the restored state before trusting it.

const (
	// mirrorMagic is "PSMIRROR" little endian.
	mirrorMagic uint64 = 0x524f5252494d5350

	// mirrorInterval paces steady-state mirror refreshes: one update per
	// this many committed mutations (allocs/frees). Structural changes
	// (format, recovery, level extension, repair) update unconditionally.
	mirrorInterval = 128
)

// mirrorImage is a decoded mirror slot.
type mirrorImage struct {
	levels int
	lists  [][2]uint64 // per class: head, tail
}

// mirrorEnabled reports whether the summary fits a mirror slot. With the
// geometry bounds in layout.go this is always true today; the guard keeps a
// future geometry change from silently writing past the slot.
func (s *subheap) mirrorEnabled() bool {
	return s.mirror.Size() <= shMirrorSlotSize
}

// mirrorAnchorValid reports whether a free-list anchor read from the live
// header could possibly be a record slot: zero (empty list) or a 64-aligned
// offset inside the hash-table arena.
func (s *subheap) mirrorAnchorValid(a uint64) bool {
	if a == 0 {
		return true
	}
	g := s.mgr.Geometry()
	return a >= g.LevelOff[0] && a < g.End && a%memblock.RecordSize == 0
}

// updateMirrorLocked captures the live header state into the stale mirror
// slot. Caller holds s.mu with the metadata window granted and no staged
// batch words (the reads go straight to the window). The capture is
// validated before anything is written: if the live header is already
// corrupt, the update is skipped so the last good image survives for
// repair. Errors are reported but callers treat the update as best-effort.
func (s *subheap) updateMirrorLocked() error {
	if !s.mirrorEnabled() {
		return nil
	}
	g := s.mgr.Geometry()
	levels, err := s.mgr.ActiveLevels(s.win)
	if err != nil {
		return err // corrupt or unreadable level count: keep the old image
	}
	body := make([]uint64, 2, 2+2*g.NumClasses)
	body[0], body[1] = uint64(levels), uint64(g.NumClasses)
	for c := 0; c < g.NumClasses; c++ {
		head, err := s.mgr.FreeHead(s.win, c)
		if err != nil {
			return err
		}
		tail, err := s.mgr.FreeTail(s.win, c)
		if err != nil {
			return err
		}
		if !s.mirrorAnchorValid(head) || !s.mirrorAnchorValid(tail) {
			return fmt.Errorf("%w: free-list anchor of class %d out of bounds", ErrCorruptHeap, c)
		}
		body = append(body, head, tail)
	}
	return s.mirror.Write(s.win, body)
}

// loadMirrorLocked returns the newest mirror image that passes the body
// check, or nil if none does (fresh image, torn first update, or corrupted
// header page), and aims the next update at the other slot. Caller holds
// s.mu with the window granted.
func (s *subheap) loadMirrorLocked() *mirrorImage {
	if !s.mirrorEnabled() {
		return nil
	}
	var img *mirrorImage
	s.mirror.Load(s.win.Read, func(_ int, _ uint64, body []uint64) bool {
		img = s.decodeMirror(body)
		return img != nil
	})
	return img
}

// decodeMirror applies the body check: the geometry must match and the
// level count and every anchor pair must be plausible. nil on failure.
func (s *subheap) decodeMirror(body []uint64) *mirrorImage {
	g := s.mgr.Geometry()
	if body[1] != uint64(g.NumClasses) || body[0] < 1 || body[0] > uint64(len(g.LevelCap)) {
		return nil
	}
	img := &mirrorImage{levels: int(body[0]), lists: make([][2]uint64, g.NumClasses)}
	for c := range img.lists {
		head, tail := body[2+2*c], body[3+2*c]
		if !s.mirrorAnchorValid(head) || !s.mirrorAnchorValid(tail) || (head == 0) != (tail == 0) {
			return nil
		}
		img.lists[c] = [2]uint64{head, tail}
	}
	return img
}

// restoreMirrorLocked stages the mirrored level count and free-list anchors
// over the primary header and commits. Caller holds s.mu with the window
// granted and s.batch open; the restored state still needs a full audit
// before the sub-heap returns to service.
func (s *subheap) restoreMirrorLocked(img *mirrorImage) error {
	if err := s.mgr.SetActiveLevels(s.batch, img.levels); err != nil {
		s.batch.Abort()
		return err
	}
	for c, ht := range img.lists {
		if err := s.mgr.SetFreeList(s.batch, c, ht[0], ht[1]); err != nil {
			s.batch.Abort()
			return err
		}
	}
	if err := s.batch.Commit(); err != nil {
		s.batch.Abort()
		if rerr := s.undo.Replay(); rerr != nil {
			return fmt.Errorf("%w (rollback also failed: %v)", err, rerr)
		}
		return err
	}
	return nil
}

// noteMirrorMutation counts one committed mutation and refreshes the mirror
// every mirrorInterval-th call. Best-effort: a failed refresh leaves the
// previous image in place. Caller holds s.mu with the window granted and a
// clean batch (called only after a successful Commit).
func (s *subheap) noteMirrorMutation() {
	s.mutations++
	if s.mutations%mirrorInterval == 0 {
		_ = s.updateMirrorLocked()
	}
}

// SyncMirrors forces a mirror refresh on every in-service sub-heap — a
// deterministic commit point for tests and for callers about to snapshot
// the device.
func (h *Heap) SyncMirrors() error {
	if err := h.live(); err != nil {
		return err
	}
	return h.syncMirrors()
}

// syncMirrors is the SyncMirrors body, also called by recover after a clean
// ScrubOnLoad audit.
func (h *Heap) syncMirrors() error {
	var first error
	for _, s := range h.subheaps {
		if s.isQuarantined() {
			continue
		}
		s.mu.Lock()
		if s.ready {
			h.grant(s.thread)
			if err := s.updateMirrorLocked(); err != nil && first == nil {
				first = err
			}
			h.revoke(s.thread)
		}
		s.mu.Unlock()
	}
	return first
}
