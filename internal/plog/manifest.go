package plog

import (
	"encoding/binary"

	"poseidon/internal/mpk"
)

// Cache manifest: the persistent shadow of a thread's DRAM block magazine.
//
// Each micro-log lane owns a fixed arena of 8-byte manifest words right
// after the lane arena in the superblock region. A thread's magazine keeps
// pre-carved blocks in DRAM for lock-free alloc/free fast paths; every
// cached block is also recorded here so a crash can never leak a magazine:
// recovery decodes the surviving words and returns the blocks to their
// free lists idempotently.
//
// Word layout (little endian):
//
//	bits  0..32  rel+1 — block offset relative to the owning sub-heap's
//	             user region base, biased by one so a valid entry is never
//	             the zero word
//	bits 33..48  sub-heap index of the cached block
//	bits 49..63  checksum over bits 0..48: the top 15 bits of Mix64(body)
//
// Like the remote-free ring, an entry is confined to a single atomically
// stored 8-byte word: under torn eviction a word is either its old value
// or its new value, never a blend, so a pure power failure can only leave
// zero (empty) or fully valid words. A word that decodes to neither is
// media corruption by construction and is left in place for the audit.
// Unlike the ring, manifest words are single-writer (the owning thread, or
// the recovery path with the heap quiesced), so they pack eight per
// cacheline instead of one — a whole refill batch persists with a handful
// of line flushes and one fence.
const (
	cacheRelBits   = 33
	cacheShardBits = 16
	cacheBodyBits  = cacheRelBits + cacheShardBits // 49
	cacheRelMask   = 1<<cacheRelBits - 1
	cacheBodyMask  = 1<<cacheBodyBits - 1

	// MaxCacheRel is the largest encodable user-region-relative offset;
	// sub-heap user regions must not exceed it for magazines to be
	// enabled.
	MaxCacheRel = cacheRelMask - 1
)

// EncodeCacheEntry packs a user-region-relative block offset and its
// owning sub-heap index into one manifest word. rel must be ≤ MaxCacheRel.
// The result is never zero (the offset field is biased by one), so the
// zero word always means "empty slot".
func EncodeCacheEntry(rel uint64, shard uint16) uint64 {
	body := (rel + 1) | uint64(shard)<<cacheRelBits
	return body | Mix64(body)&^cacheBodyMask
}

// DecodeCacheEntry unpacks a non-zero manifest word. ok is false when the
// checksum does not match the body — a corrupt entry.
func DecodeCacheEntry(word uint64) (rel uint64, shard uint16, ok bool) {
	body := word & cacheBodyMask
	if word != body|Mix64(body)&^cacheBodyMask || body&cacheRelMask == 0 {
		return 0, 0, false
	}
	return body&cacheRelMask - 1, uint16(body >> cacheRelBits), true
}

// Manifest is the geometry of one lane's cache-manifest arena: slots
// 8-byte words at consecutive device offsets. It carries no I/O handle —
// the thread, the sub-heap refill path and recovery each read and write
// the words through their own protection windows.
type Manifest struct {
	base  uint64
	slots uint64
}

// NewManifest describes the manifest arena at device offset base holding
// slots words.
func NewManifest(base, slots uint64) Manifest { return Manifest{base: base, slots: slots} }

// Slots returns the word capacity.
func (m Manifest) Slots() uint64 { return m.slots }

// WordOff returns the device offset of word i.
func (m Manifest) WordOff(i uint64) uint64 { return m.base + i*8 }

// Scan reads the whole manifest with one bulk w.Read — one protection
// check, range check and fault hook over the arena, instead of one per
// word — into buf, which is grown when too small and returned for reuse.
// It then calls fn(slot, word) for every non-zero word in slot order.
// Words are passed undecoded: what an undecodable or out-of-range entry
// means is the caller's policy (recovery skips it, Check reports it,
// magazine adoption disables itself). On a read error fn is not called.
func (m Manifest) Scan(w mpk.Window, buf []byte, fn func(slot, word uint64)) ([]byte, error) {
	n := m.slots * 8
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if err := w.Read(m.base, buf); err != nil {
		return buf, err
	}
	// Most manifests are empty, so test a cacheline of eight words at once
	// and decode only the lines holding an entry.
	le := binary.LittleEndian
	for k := uint64(0); k < m.slots; k += 8 {
		line := buf[k*8 : min(k*8+64, n)]
		if len(line) == 64 && zeroLine(line) {
			continue
		}
		for j := range uint64(len(line) / 8) {
			if word := le.Uint64(line[j*8:]); word != 0 {
				fn(k+j, word)
			}
		}
	}
	return buf, nil
}

// zeroLine reports whether a 64-byte line holds only zero words.
func zeroLine(l []byte) bool {
	l = l[:64:64]
	le := binary.LittleEndian
	return le.Uint64(l[0:])|le.Uint64(l[8:])|le.Uint64(l[16:])|le.Uint64(l[24:])|
		le.Uint64(l[32:])|le.Uint64(l[40:])|le.Uint64(l[48:])|le.Uint64(l[56:]) == 0
}
