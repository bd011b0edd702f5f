package plog

// Persistent allocation-site side-table: a compact, checksummed serialization
// of the heap profiler's site table, stored inside the heap image so a leak
// profile survives crashes and restarts.
//
// The arena holds TWO payload slots whose headers form a GenSlots pair
// (genslots.go) with body {len, payloadSum, epoch}. A snapshot write goes
// to the slot the pair writes next: payload first, fence, then the header,
// whose own write fences. A crash at any point leaves the previous slot's
// header and payload untouched, so the newest *valid* slot is always a
// complete, self-consistent snapshot — possibly one generation stale, never
// torn. A header is valid when its envelope checks, its length fits the
// payload slot and payloadSum = Checksum(gen, payload). When no slot is
// valid on a non-blank arena the table is torn. Torn tables only ever reset
// the profile — they carry no allocator metadata, so they can never
// quarantine a sub-heap or affect allocation correctness.
//
// Arena layout (base-relative):
//
//	+0    slot 0 header (64 bytes, one cacheline)
//	+64   slot 1 header (64 bytes)
//	+128  slot 0 payload (payloadCap bytes)
//	+128+payloadCap  slot 1 payload
//
// Header cacheline (little-endian u64 words):
//
//	word 0  magic       "POSSITES"
//	word 1  gen         snapshot generation (monotonic across both slots)
//	word 2  len         payload byte length
//	word 3  payloadSum  Checksum(gen, payload)
//	word 4  epoch       boot epoch that wrote the snapshot
//	word 5  check       Checksum(gen, words 2..4)
//
// Payload blob:
//
//	u64 count
//	repeat count times:
//	  u64 hash          symbolized-frame identity hash (restart-stable key)
//	  u64 liveObjects   int64 bit pattern
//	  u64 liveBytes     int64 bit pattern
//	  u64 allocObjects
//	  u64 allocBytes
//	  u64 freeObjects
//	  u64 freeBytes
//	  u64 firstEpoch
//	  u16 frameCount
//	  repeat frameCount times:
//	    u16 len(func) ++ func bytes
//	    u16 len(file) ++ file bytes
//	    u32 line
//
// Frames are stored symbolized (strings, not PCs): raw PCs are meaningless
// after a restart — a recompiled binary reuses the same addresses for
// different code — while function/file/line survive any rebuild that keeps
// the call site.

import (
	"encoding/binary"
	"fmt"
)

const (
	// SiteMagic is the side-table header magic ("POSSITES", little-endian).
	SiteMagic = 0x5345544953534F50

	// SiteHeaderSize is one header slot: a single cacheline, so the header
	// store is covered by one flush.
	SiteHeaderSize = 64

	// SiteSlots is the number of A/B snapshot slots.
	SiteSlots = 2

	// siteMaxFrames bounds the frames persisted per site; deeper stacks
	// are truncated (the leading application frames are what identify a
	// site).
	siteMaxFrames = 8

	// siteMaxStr bounds one persisted function/file string.
	siteMaxStr = 512
)

// SiteFrame is one symbolized frame of a persisted allocation site.
type SiteFrame struct {
	Func string
	File string
	Line uint32
}

// SiteRecord is one allocation site in a persisted snapshot.
type SiteRecord struct {
	Hash         uint64
	LiveObjects  int64
	LiveBytes    int64
	AllocObjects uint64
	AllocBytes   uint64
	FreeObjects  uint64
	FreeBytes    uint64
	FirstEpoch   uint64
	Frames       []SiteFrame
}

// SiteArena describes the side-table arena geometry at device offset base
// spanning size bytes. Like Manifest it carries no I/O handle; core reads
// and writes through its protection windows.
type SiteArena struct {
	base uint64
	size uint64
}

// NewSiteArena describes an arena. size below the minimum usable footprint
// yields a zero-capacity arena (Valid() false).
func NewSiteArena(base, size uint64) SiteArena { return SiteArena{base: base, size: size} }

// Valid reports whether the arena can hold at least a trivial snapshot.
func (a SiteArena) Valid() bool { return a.PayloadCap() >= 16 }

// PayloadCap is the byte capacity of one payload slot.
func (a SiteArena) PayloadCap() uint64 {
	if a.size <= SiteSlots*SiteHeaderSize {
		return 0
	}
	return (a.size - SiteSlots*SiteHeaderSize) / SiteSlots &^ 7
}

// HeaderOff returns the device offset of slot i's header cacheline.
func (a SiteArena) HeaderOff(i int) uint64 { return a.base + uint64(i)*SiteHeaderSize }

// Headers returns the header pair: body {len, payloadSum, epoch}.
func (a SiteArena) Headers() GenSlots { return NewGenSlots(a.base, SiteHeaderSize, SiteMagic, 3) }

// PayloadOff returns the device offset of slot i's payload region.
func (a SiteArena) PayloadOff(i int) uint64 {
	return a.base + SiteSlots*SiteHeaderSize + uint64(i)*a.PayloadCap()
}

// siteSize returns the encoded byte size of one record.
func siteSize(s *SiteRecord) uint64 {
	n := uint64(8*8 + 2)
	fr := s.Frames
	if len(fr) > siteMaxFrames {
		fr = fr[:siteMaxFrames]
	}
	for _, f := range fr {
		n += 2 + uint64(min(len(f.Func), siteMaxStr))
		n += 2 + uint64(min(len(f.File), siteMaxStr))
		n += 4
	}
	return n
}

// EncodeSites serializes sites into a payload blob of at most maxBytes.
// Callers pass sites ordered most-important-first (by live bytes); records
// that do not fit are dropped from the tail and counted in dropped — a
// bounded arena degrades to a top-K profile, never to a torn one.
func EncodeSites(sites []SiteRecord, maxBytes uint64) (blob []byte, dropped int) {
	if maxBytes < 8 {
		return nil, len(sites)
	}
	buf := make([]byte, 8, min(maxBytes, 1<<20))
	count := uint64(0)
	for i := range sites {
		s := &sites[i]
		if uint64(len(buf))+siteSize(s) > maxBytes {
			dropped++
			continue
		}
		var w [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(w[:], v)
			buf = append(buf, w[:]...)
		}
		put(s.Hash)
		put(uint64(s.LiveObjects))
		put(uint64(s.LiveBytes))
		put(s.AllocObjects)
		put(s.AllocBytes)
		put(s.FreeObjects)
		put(s.FreeBytes)
		put(s.FirstEpoch)
		fr := s.Frames
		if len(fr) > siteMaxFrames {
			fr = fr[:siteMaxFrames]
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(fr)))
		for _, f := range fr {
			fn, fl := f.Func, f.File
			if len(fn) > siteMaxStr {
				fn = fn[:siteMaxStr]
			}
			if len(fl) > siteMaxStr {
				fl = fl[:siteMaxStr]
			}
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(fn)))
			buf = append(buf, fn...)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(fl)))
			buf = append(buf, fl...)
			buf = binary.LittleEndian.AppendUint32(buf, f.Line)
		}
		count++
	}
	binary.LittleEndian.PutUint64(buf[0:], count)
	return buf, dropped
}

// DecodeSites parses a payload blob. The blob is checksum-validated before
// it reaches here, so a decode error indicates a codec bug or a checksum
// collision — it is still reported, never panicked on.
func DecodeSites(blob []byte) ([]SiteRecord, error) {
	if len(blob) < 8 {
		return nil, fmt.Errorf("plog: site blob too short (%d bytes)", len(blob))
	}
	count := binary.LittleEndian.Uint64(blob)
	if count > uint64(len(blob))/8 {
		return nil, fmt.Errorf("plog: site blob count %d exceeds blob", count)
	}
	pos := 8
	need := func(n int) bool { return pos+n <= len(blob) }
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(blob[pos:])
		pos += 8
		return v
	}
	out := make([]SiteRecord, 0, count)
	for i := uint64(0); i < count; i++ {
		if !need(8*8 + 2) {
			return nil, fmt.Errorf("plog: site blob truncated at record %d", i)
		}
		var s SiteRecord
		s.Hash = u64()
		s.LiveObjects = int64(u64())
		s.LiveBytes = int64(u64())
		s.AllocObjects = u64()
		s.AllocBytes = u64()
		s.FreeObjects = u64()
		s.FreeBytes = u64()
		s.FirstEpoch = u64()
		nf := int(binary.LittleEndian.Uint16(blob[pos:]))
		pos += 2
		if nf > siteMaxFrames {
			return nil, fmt.Errorf("plog: site record %d frame count %d exceeds max", i, nf)
		}
		for j := 0; j < nf; j++ {
			var fr SiteFrame
			for k := 0; k < 2; k++ {
				if !need(2) {
					return nil, fmt.Errorf("plog: site blob truncated in record %d frames", i)
				}
				l := int(binary.LittleEndian.Uint16(blob[pos:]))
				pos += 2
				if l > siteMaxStr || !need(l) {
					return nil, fmt.Errorf("plog: site record %d frame string overruns blob", i)
				}
				str := string(blob[pos : pos+l])
				pos += l
				if k == 0 {
					fr.Func = str
				} else {
					fr.File = str
				}
			}
			if !need(4) {
				return nil, fmt.Errorf("plog: site blob truncated in record %d frames", i)
			}
			fr.Line = binary.LittleEndian.Uint32(blob[pos:])
			pos += 4
			s.Frames = append(s.Frames, fr)
		}
		out = append(out, s)
	}
	return out, nil
}
