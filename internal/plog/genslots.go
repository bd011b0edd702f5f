package plog

import "encoding/binary"

// Self-validating metadata: the one checksum family and the one A/B
// generation-slot envelope every small persistent record in the heap image
// is built from.
//
// A GenSlots pair holds successive generations of one fixed-size record in
// two slots. Each slot is
//
//	word 0       magic
//	word 1       gen     generation (monotonic across both slots)
//	words 2..    body    the caller's words
//	last word    check   Checksum(gen, body bytes)
//
// A write always lands in the slot NOT holding the adopted generation, as
// one store, one flush span and one fence, so a crash mid-write tears at
// most the older copy. A read adopts the newest slot whose envelope
// validates and whose body the caller accepts; everything else is not a
// record. The sub-heap metadata mirror, the profile site-table headers and
// the black-box headers are all GenSlots pairs.

// Mix64 is splitmix64's finalizer: every input bit avalanches into every
// output bit. Single-word entries (cache-manifest words, remote-free ring
// words) keep its top bits as their check field.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Checksum mixes seed and b into a 64-bit check value (FNV-1a over the
// bytes, started from the seed, finalized with Mix64): a torn or
// bit-flipped input, or the same bytes under another seed, fails the check.
func Checksum(seed uint64, b []byte) uint64 {
	h := uint64(0xCBF29CE484222325) ^ seed*0x9E3779B97F4A7C15
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001B3
	}
	return Mix64(h)
}

// SlotWriter is the device access a GenSlots write needs; mpk.Window and
// nvm.Device both provide it.
type SlotWriter interface {
	Write(off uint64, b []byte) error
	Flush(off, n uint64) error
	Fence()
}

// GenSlots is an A/B pair of generation slots plus the DRAM state naming
// the next write. Not safe for concurrent use; owners guard it with the
// lock that serializes their writes.
type GenSlots struct {
	base, stride, magic uint64
	words               int    // body words per slot
	gen                 uint64 // highest generation seen valid or written
	next                int    // slot the next Write targets
}

// NewGenSlots describes a pair whose slot i starts at base+i*stride and
// carries words body words. A fresh pair writes generation 1 into slot 0.
func NewGenSlots(base, stride, magic uint64, words int) GenSlots {
	return GenSlots{base: base, stride: stride, magic: magic, words: words}
}

// Size is one slot's encoded byte length.
func (p *GenSlots) Size() uint64 { return uint64(p.words+3) * 8 }

// Off returns the device offset of slot i.
func (p *GenSlots) Off(i int) uint64 { return p.base + uint64(i)*p.stride }

// Next returns the slot and generation the next Write uses, for callers
// that persist a payload bound to that generation first.
func (p *GenSlots) Next() (slot int, gen uint64) { return p.next, p.gen + 1 }

// Load reads both slots and returns the body of the newest one whose
// envelope validates and that accept (nil accepts all) approves, and aims
// the next Write at the other slot. body is nil when no slot qualifies;
// torn then reports that some slot was not blank — an unreadable slot
// counts as not blank — so a fresh pair is never torn.
func (p *GenSlots) Load(read func(off uint64, b []byte) error,
	accept func(slot int, gen uint64, body []uint64) bool) (body []uint64, torn bool) {
	type slot struct {
		i    int
		gen  uint64
		body []uint64
	}
	var valid []slot
	p.gen, p.next = 0, 0
	for i := 0; i < 2; i++ {
		buf := make([]byte, p.Size())
		if read(p.Off(i), buf) != nil {
			torn = true
			continue
		}
		gen, b, ok := p.decode(buf)
		if !ok {
			torn = torn || !allZero(buf)
			continue
		}
		torn = true // non-blank, should accept refuse it
		p.gen = max(p.gen, gen)
		valid = append(valid, slot{i, gen, b})
	}
	if len(valid) == 2 && valid[1].gen > valid[0].gen {
		valid[0], valid[1] = valid[1], valid[0]
	}
	for _, s := range valid {
		if accept == nil || accept(s.i, s.gen, s.body) {
			p.next = 1 - s.i
			return s.body, false
		}
	}
	return nil, torn
}

// Write persists body as the next generation into the slot not holding the
// adopted one. On error nothing advances: the adopted generation is intact
// and the next Write retries the same slot.
func (p *GenSlots) Write(w SlotWriter, body []uint64) error {
	slot, gen := p.Next()
	buf := p.encode(gen, body)
	off := p.Off(slot)
	if err := w.Write(off, buf); err != nil {
		return err
	}
	if err := w.Flush(off, uint64(len(buf))); err != nil {
		return err
	}
	w.Fence()
	p.gen, p.next = gen, 1-slot
	return nil
}

func (p *GenSlots) encode(gen uint64, body []uint64) []byte {
	buf := make([]byte, p.Size())
	end := 16 + 8*p.words
	binary.LittleEndian.PutUint64(buf, p.magic)
	binary.LittleEndian.PutUint64(buf[8:], gen)
	for i := 0; i < p.words; i++ {
		binary.LittleEndian.PutUint64(buf[16+8*i:], body[i])
	}
	binary.LittleEndian.PutUint64(buf[end:], Checksum(gen, buf[16:end]))
	return buf
}

func (p *GenSlots) decode(buf []byte) (gen uint64, body []uint64, ok bool) {
	end := 16 + 8*p.words
	gen = binary.LittleEndian.Uint64(buf[8:])
	if binary.LittleEndian.Uint64(buf) != p.magic ||
		binary.LittleEndian.Uint64(buf[end:]) != Checksum(gen, buf[16:end]) {
		return 0, nil, false
	}
	body = make([]uint64, p.words)
	for i := range body {
		body[i] = binary.LittleEndian.Uint64(buf[16+8*i:])
	}
	return gen, body, true
}

// allZero reports whether buf is entirely zero bytes (a never-written slot).
func allZero(buf []byte) bool {
	for _, b := range buf {
		if b != 0 {
			return false
		}
	}
	return true
}
