package plog

import (
	"encoding/binary"
	"fmt"

	"poseidon/internal/mpk"
)

// Micro log persistent layout (offsets relative to the log base):
//
//	+0   count u64 — committed entry count (the commit word)
//	+64  entry area: 16-byte records, one per transactional allocation
//	     (8-byte sub-heap-relative offset, 8-byte size — enough for
//	     recovery to free the block)
//
// The micro log is the history of memory allocations inside an open
// transactional allocation (poseidon_tx_alloc). It is truncated when the
// transaction commits (is_end == true); a non-empty micro log at restart
// means the transaction never committed, so recovery frees every logged
// address to prevent a persistent memory leak (paper §4.5, §5.3).
const (
	microHeaderSize = 64
	microEntrySize  = 16
)

// MicroEntry is one logged transactional allocation.
type MicroEntry struct {
	Offset uint64 // sub-heap-relative offset of the allocated block
	Size   uint64 // block size
}

// MicroLog is the per-sub-heap transactional-allocation log.
type MicroLog struct {
	w    mpk.Window
	base uint64
	size uint64

	count uint64 // volatile mirror of the persistent count
}

// OpenMicroLog attaches to (or initialises) the micro log stored at
// [base, base+size) behind w. A zeroed region is the empty log.
func OpenMicroLog(w mpk.Window, base, size uint64) (*MicroLog, error) {
	if size < microHeaderSize+microEntrySize {
		return nil, fmt.Errorf("plog: micro log region too small (%d bytes)", size)
	}
	count, err := w.ReadU64(base)
	if err != nil {
		return nil, err
	}
	if microHeaderSize+count*microEntrySize > size {
		return nil, fmt.Errorf("%w: count %d beyond capacity", errCorrupt, count)
	}
	return &MicroLog{w: w, base: base, size: size, count: count}, nil
}

// IsEmpty reports whether no transaction is in flight.
func (l *MicroLog) IsEmpty() bool { return l.count == 0 }

// Count returns the number of logged allocations.
func (l *MicroLog) Count() uint64 { return l.count }

// Capacity returns the maximum number of allocations one transaction can
// hold.
func (l *MicroLog) Capacity() uint64 {
	return (l.size - microHeaderSize) / microEntrySize
}

// Append durably logs one allocation: the entry is persisted, then the
// count is bumped with an atomic persist. After Append returns, a crash
// rolls the allocation back.
func (l *MicroLog) Append(e MicroEntry) error {
	if l.count >= l.Capacity() {
		return fmt.Errorf("%w: micro log (%d entries)", ErrLogFull, l.count)
	}
	at := l.base + microHeaderSize + l.count*microEntrySize
	var buf [microEntrySize]byte
	putU64(buf[0:], e.Offset)
	putU64(buf[8:], e.Size)
	if err := l.w.Persist(at, buf[:]); err != nil {
		return err
	}
	if err := l.w.PersistU64(l.base, l.count+1); err != nil {
		return err
	}
	l.count++
	return nil
}

// Entries returns the committed entries, oldest first, read from the
// device with one bulk w.Read of the count*16-byte entry area.
func (l *MicroLog) Entries() ([]MicroEntry, error) {
	out := make([]MicroEntry, l.count)
	if l.count == 0 {
		return out, nil
	}
	buf := make([]byte, l.count*microEntrySize)
	if err := l.w.Read(l.base+microHeaderSize, buf); err != nil {
		return nil, err
	}
	for i := range out {
		e := buf[i*microEntrySize:]
		out[i] = MicroEntry{
			Offset: binary.LittleEndian.Uint64(e[0:]),
			Size:   binary.LittleEndian.Uint64(e[8:]),
		}
	}
	return out, nil
}

// Truncate commits the transaction by atomically persisting a zero count.
func (l *MicroLog) Truncate() error {
	if err := l.w.PersistU64(l.base, 0); err != nil {
		return err
	}
	l.count = 0
	return nil
}
