package plog

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func sampleSiteRecords() []SiteRecord {
	return []SiteRecord{
		{
			Hash: 0xDEADBEEFCAFE, LiveObjects: 3, LiveBytes: 384,
			AllocObjects: 5, AllocBytes: 640, FirstEpoch: 1,
			Frames: []SiteFrame{
				{Func: "main.leakA", File: "main.go", Line: 42},
				{Func: "main.run", File: "main.go", Line: 10},
			},
		},
		{
			// Net-negative live counts happen when cross-thread frees outrun
			// the sampled allocs of a site; the codec must round-trip them.
			Hash: 1, LiveObjects: -1, LiveBytes: -128,
			AllocObjects: 2, AllocBytes: 256, FirstEpoch: 7,
			Frames: []SiteFrame{{Func: "pkg.fn", File: "f.go", Line: 1}},
		},
	}
}

func TestSiteCodecRoundTrip(t *testing.T) {
	want := sampleSiteRecords()
	blob, dropped := EncodeSites(want, 64<<10)
	if dropped != 0 {
		t.Fatalf("dropped %d records with ample space", dropped)
	}
	got, err := DecodeSites(blob)
	if err != nil {
		t.Fatalf("DecodeSites: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got:  %+v\n want: %+v", got, want)
	}
}

func TestSiteHeaderRoundTrip(t *testing.T) {
	arena := NewSiteArena(0, 4096)
	m := newMemSlots(4096)
	w := arena.Headers()
	want := []uint64{1234, 0xABCD, 3} // len, payloadSum, epoch
	if err := w.Write(m, want); err != nil {
		t.Fatal(err)
	}
	r := arena.Headers()
	got, torn := r.Load(m.Read, nil)
	if torn || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("header round trip: got %v torn %v, want %v", got, torn, want)
	}
	if gotMagic := binary.LittleEndian.Uint64(m.b[arena.HeaderOff(0):]); gotMagic != SiteMagic {
		t.Fatalf("slot 0 magic = %#x", gotMagic)
	}
	// Every header word is covered by the check: a flip in the magic, the
	// generation, the length, the payload sum or the epoch is not a header.
	for word := 0; word < 5; word++ {
		m.b[arena.HeaderOff(0)+uint64(8*word)] ^= 0x10
		if got, torn := r.Load(m.Read, nil); got != nil || !torn {
			t.Fatalf("word %d flip: got %v torn %v, want a torn table", word, got, torn)
		}
		m.b[arena.HeaderOff(0)+uint64(8*word)] ^= 0x10
	}
	// Blank headers are not a table at all.
	if got, torn := r.Load(newMemSlots(4096).Read, nil); got != nil || torn {
		t.Fatalf("blank arena: got %v torn %v", got, torn)
	}
}

func TestSiteChecksumDependsOnSeqAndPayload(t *testing.T) {
	payload := []byte("some site table payload bytes")
	base := Checksum(5, payload)
	if Checksum(6, payload) == base {
		t.Fatal("checksum ignores the sequence number")
	}
	flipped := append([]byte(nil), payload...)
	flipped[3] ^= 0x01
	if Checksum(5, flipped) == base {
		t.Fatal("checksum ignores a payload bit flip")
	}
	if Checksum(5, payload) != base {
		t.Fatal("checksum not deterministic")
	}
}

func TestEncodeSitesDropsFromTail(t *testing.T) {
	// Three records; budget sized so only the first fits. The rest are
	// dropped and counted — a bounded arena degrades to top-K, never tears.
	recs := make([]SiteRecord, 3)
	for i := range recs {
		recs[i] = SiteRecord{
			Hash: uint64(i + 1), LiveObjects: 1, LiveBytes: 64,
			AllocObjects: 1, AllocBytes: 64, FirstEpoch: 1,
			Frames: []SiteFrame{{Func: "fn", File: "f.go", Line: uint32(i)}},
		}
	}
	one := siteSize(&recs[0])
	blob, dropped := EncodeSites(recs, 8+one)
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	got, err := DecodeSites(blob)
	if err != nil {
		t.Fatalf("DecodeSites: %v", err)
	}
	if len(got) != 1 || got[0].Hash != 1 {
		t.Fatalf("kept records = %+v, want just hash 1", got)
	}
	// A budget below the count word drops everything.
	if blob, dropped := EncodeSites(recs, 4); blob != nil || dropped != len(recs) {
		t.Fatalf("tiny budget: blob=%v dropped=%d", blob, dropped)
	}
}

func TestEncodeSitesTruncatesStringsAndFrames(t *testing.T) {
	rec := SiteRecord{Hash: 7, AllocObjects: 1}
	for i := 0; i < siteMaxFrames+4; i++ {
		rec.Frames = append(rec.Frames, SiteFrame{
			Func: strings.Repeat("f", siteMaxStr+100),
			File: "x.go", Line: uint32(i),
		})
	}
	blob, dropped := EncodeSites([]SiteRecord{rec}, 64<<10)
	if dropped != 0 {
		t.Fatalf("dropped = %d", dropped)
	}
	got, err := DecodeSites(blob)
	if err != nil {
		t.Fatalf("DecodeSites: %v", err)
	}
	if len(got) != 1 || len(got[0].Frames) != siteMaxFrames {
		t.Fatalf("frames = %d, want %d", len(got[0].Frames), siteMaxFrames)
	}
	if len(got[0].Frames[0].Func) != siteMaxStr {
		t.Fatalf("func string = %d bytes, want %d", len(got[0].Frames[0].Func), siteMaxStr)
	}
}

func TestDecodeSitesRejectsCorruption(t *testing.T) {
	blob, _ := EncodeSites(sampleSiteRecords(), 64<<10)
	cases := map[string][]byte{
		"empty":      nil,
		"short":      blob[:4],
		"truncated":  blob[:len(blob)-3],
		"huge count": append([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, blob[8:]...),
	}
	for name, b := range cases {
		if _, err := DecodeSites(b); err == nil {
			t.Errorf("%s blob decoded without error", name)
		}
	}
}

func TestSiteArenaGeometry(t *testing.T) {
	a := NewSiteArena(1000, SiteSlots*SiteHeaderSize+160)
	if !a.Valid() {
		t.Fatal("arena with payload space reports invalid")
	}
	if got := a.PayloadCap(); got != 80 {
		t.Fatalf("PayloadCap = %d, want 80", got)
	}
	if a.HeaderOff(0) != 1000 || a.HeaderOff(1) != 1000+SiteHeaderSize {
		t.Fatalf("header offsets = %d, %d", a.HeaderOff(0), a.HeaderOff(1))
	}
	if a.PayloadOff(0) != 1000+SiteSlots*SiteHeaderSize {
		t.Fatalf("payload 0 offset = %d", a.PayloadOff(0))
	}
	if a.PayloadOff(1) != a.PayloadOff(0)+a.PayloadCap() {
		t.Fatalf("payload 1 offset = %d", a.PayloadOff(1))
	}
	// Too small for even a trivial snapshot: zero-capacity, invalid.
	small := NewSiteArena(0, SiteSlots*SiteHeaderSize)
	if small.Valid() || small.PayloadCap() != 0 {
		t.Fatalf("tiny arena: valid=%v cap=%d", small.Valid(), small.PayloadCap())
	}
}
