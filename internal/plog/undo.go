// Package plog implements Poseidon's two persistent logging schemes over an
// NVMM window: the undo log that makes every metadata mutation
// failure-atomic, and the micro log that records the allocations of an open
// transactional allocation (paper §4.5, §5.2, §5.3, §5.8).
//
// Both logs live inside the MPK-protected metadata region of a sub-heap (or
// the superblock), so they are guarded by the same protection discipline as
// the metadata they protect.
package plog

import (
	"errors"
	"fmt"

	"poseidon/internal/mpk"
)

// Undo log persistent layout (all offsets relative to the log base):
//
//	+0   count   u64  — number of committed entries (the commit word)
//	+8   cursor  u64  — byte offset, within the entry area, one past the
//	                    last committed entry (lets Open avoid a scan)
//	+64  entry area — entries appended back to back:
//	       [target u64][length u64][data … padded to 8 bytes]
//
// Protocol: Snapshot appends entries (volatile), Seal flushes them and
// commits by persisting count+cursor, the caller then mutates the target
// metadata, flushes it, and Truncate resets the log. A crash between Seal
// and Truncate replays the entries in reverse, restoring the pre-mutation
// bytes. Replay is idempotent: crashing during recovery and replaying again
// is safe (§5.8).
const (
	undoHeaderSize = 64
	entryHeader    = 16
)

// Common log errors.
var (
	ErrLogFull  = errors.New("plog: log capacity exceeded")
	ErrLogDirty = errors.New("plog: log contains committed entries (crash recovery required)")
	errCorrupt  = errors.New("plog: corrupt log header")
)

// UndoLog is a write-ahead log of original metadata bytes.
type UndoLog struct {
	w    mpk.Window
	base uint64
	size uint64

	// Volatile mirrors of the persistent header.
	count  uint64
	cursor uint64 // end of committed entries, relative to entry area
	tail   uint64 // end of appended (possibly unsealed) entries
	unseal uint64 // entries appended since the last Seal

	scratch []byte // reused entry-assembly buffer
}

// OpenUndoLog attaches to (or initialises) the undo log stored at
// [base, base+size) behind w. The region must be zeroed at first use; a
// zeroed header is the empty log.
func OpenUndoLog(w mpk.Window, base, size uint64) (*UndoLog, error) {
	if size < undoHeaderSize+entryHeader+8 {
		return nil, fmt.Errorf("plog: undo log region too small (%d bytes)", size)
	}
	count, err := w.ReadU64(base)
	if err != nil {
		return nil, err
	}
	cursor, err := w.ReadU64(base + 8)
	if err != nil {
		return nil, err
	}
	if cursor > size-undoHeaderSize {
		return nil, fmt.Errorf("%w: cursor %d beyond capacity", errCorrupt, cursor)
	}
	if count == 0 {
		// A torn truncate may persist (count=0, stale cursor). count is
		// authoritative: the log is empty, so appending restarts at zero.
		cursor = 0
	}
	return &UndoLog{
		w: w, base: base, size: size,
		count: count, cursor: cursor, tail: cursor,
	}, nil
}

// IsEmpty reports whether the log holds no committed entries — i.e. the last
// operation completed and truncated it.
func (l *UndoLog) IsEmpty() bool { return l.count == 0 }

// Count returns the number of committed entries.
func (l *UndoLog) Count() uint64 { return l.count }

// entryArea returns the device offset of the entry area.
func (l *UndoLog) entryArea() uint64 { return l.base + undoHeaderSize }

// Snapshot appends the current contents of [target, target+n) to the log.
// The entry is volatile until Seal. Callers snapshot every metadata range
// they are about to mutate, seal once, then mutate.
func (l *UndoLog) Snapshot(target, n uint64) error {
	if n == 0 {
		return nil
	}
	padded := (n + 7) &^ 7
	need := entryHeader + padded
	if l.tail+need > l.size-undoHeaderSize {
		return fmt.Errorf("%w: undo log (%d bytes appended)", ErrLogFull, l.tail)
	}
	if uint64(cap(l.scratch)) < need {
		l.scratch = make([]byte, need*2)
	}
	buf := l.scratch[:need]
	clear(buf[entryHeader+n:]) // zero the padding tail of the reused buffer
	putU64(buf[0:], target)
	putU64(buf[8:], n)
	if err := l.w.Read(target, buf[entryHeader:entryHeader+n]); err != nil {
		return err
	}
	if err := l.w.Write(l.entryArea()+l.tail, buf); err != nil {
		return err
	}
	l.tail += need
	l.unseal++
	return nil
}

// Seal makes every entry appended since the last Seal durable and commits
// them with a single atomic update of the header. After Seal returns, a
// crash will undo the mutations the caller is about to make.
func (l *UndoLog) Seal() error {
	if l.unseal == 0 {
		return nil
	}
	// 1. Flush the appended entry bytes.
	if err := l.w.Flush(l.entryArea()+l.cursor, l.tail-l.cursor); err != nil {
		return err
	}
	l.w.Fence()
	// 2. Commit: persist the new cursor, then the count (the commit word).
	// Replay reads entries strictly by walking count entries from zero, so
	// a torn header (new cursor, old count) is harmless.
	if err := l.w.WriteU64(l.base+8, l.tail); err != nil {
		return err
	}
	if err := l.w.WriteU64(l.base, l.count+l.unseal); err != nil {
		return err
	}
	if err := l.w.Flush(l.base, 16); err != nil {
		return err
	}
	l.w.Fence()
	l.count += l.unseal
	l.cursor = l.tail
	l.unseal = 0
	return nil
}

// Truncate discards all entries, marking the protected mutation complete.
// The caller must have flushed its metadata mutations first.
//
// Store order matters: the count (commit word) is zeroed before the cursor.
// Both live in one cacheline, so a crash can only tear *between* the two
// stores; zeroing count first makes every tear read as an empty log. The
// reverse order could persist (count>0, cursor=0) — a header that lies
// about its entries.
func (l *UndoLog) Truncate() error {
	if err := l.w.WriteU64(l.base, 0); err != nil {
		return err
	}
	if err := l.w.WriteU64(l.base+8, 0); err != nil {
		return err
	}
	if err := l.w.Flush(l.base, 16); err != nil {
		return err
	}
	l.w.Fence()
	l.count, l.cursor, l.tail, l.unseal = 0, 0, 0, 0
	return nil
}

// Replay restores every committed entry in reverse order, persists the
// restored bytes, then truncates the log. Replaying an empty log is a no-op.
// Replay is idempotent.
func (l *UndoLog) Replay() error {
	if l.count == 0 {
		// Drop any unsealed garbage.
		l.tail, l.unseal = l.cursor, 0
		return nil
	}
	// Walk forward collecting entry positions, then restore in reverse.
	type entry struct {
		pos    uint64 // offset of data within entry area
		target uint64
		length uint64
	}
	entries := make([]entry, 0, l.count)
	pos := uint64(0)
	for i := uint64(0); i < l.count; i++ {
		target, err := l.w.ReadU64(l.entryArea() + pos)
		if err != nil {
			return err
		}
		length, err := l.w.ReadU64(l.entryArea() + pos + 8)
		if err != nil {
			return err
		}
		padded := (length + 7) &^ 7
		if length == 0 || pos+entryHeader+padded > l.cursor {
			return fmt.Errorf("%w: entry %d overruns committed area", errCorrupt, i)
		}
		entries = append(entries, entry{pos: pos + entryHeader, target: target, length: length})
		pos += entryHeader + padded
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		buf := make([]byte, e.length)
		if err := l.w.Read(l.entryArea()+e.pos, buf); err != nil {
			return err
		}
		if err := l.w.Write(e.target, buf); err != nil {
			return err
		}
		if err := l.w.Flush(e.target, e.length); err != nil {
			return err
		}
	}
	l.w.Fence()
	return l.Truncate()
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
