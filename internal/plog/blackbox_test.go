package plog

import (
	"strings"
	"testing"
)

func TestBoxRecordRoundTrip(t *testing.T) {
	r := BoxRecord{
		Seq: 41, Type: BoxEvent, Kind: 7, Subheap: -1, Lane: 3,
		WallNS: 1234567890, DurNS: 55, Aux0: 2, Aux1: 9,
		Detail: "sub-heap 3 quarantined",
	}
	buf := EncodeBoxRecord(r)
	got, ok := DecodeBoxRecord(buf[:])
	if !ok {
		t.Fatal("round-trip record failed to decode")
	}
	if got != r {
		t.Fatalf("round trip = %+v, want %+v", got, r)
	}
}

func TestBoxRecordDetailTruncation(t *testing.T) {
	long := strings.Repeat("x", 3*BoxDetailCap)
	buf := EncodeBoxRecord(BoxRecord{Seq: 1, Type: BoxSpan, Detail: long})
	got, ok := DecodeBoxRecord(buf[:])
	if !ok {
		t.Fatal("truncated record failed to decode")
	}
	if got.Detail != long[:BoxDetailCap] {
		t.Fatalf("detail = %q (len %d), want %d-byte prefix", got.Detail, len(got.Detail), BoxDetailCap)
	}
}

func TestBoxRecordRejectsCorruption(t *testing.T) {
	buf := EncodeBoxRecord(BoxRecord{Seq: 9, Type: BoxEvent, Kind: 1, Detail: "ok"})
	for off := 0; off < BoxRecordSize; off++ {
		bad := buf
		bad[off] ^= 0x40
		if _, ok := DecodeBoxRecord(bad[:]); ok {
			t.Fatalf("single-byte corruption at offset %d went undetected", off)
		}
	}
	var blank [BoxRecordSize]byte
	if _, ok := DecodeBoxRecord(blank[:]); ok {
		t.Fatal("blank slot decoded as a record")
	}
}

// TestBoxHeaderRoundTripAndAdopt drives the box header pair — a GenSlots
// pair, like the mirror and site-table headers — through every adoption
// rule of the A/B envelope.
func TestBoxHeaderRoundTripAndAdopt(t *testing.T) {
	hdrs := NewBoxArena(0, 64<<10).Headers()
	flip := func(m *memSlots, slot int) { m.b[hdrs.Off(slot)+20] ^= 0xff }
	cases := []struct {
		name     string
		writes   int               // generations written, epochs 1..writes
		damage   func(m *memSlots) // applied after the writes
		reject   uint64            // epoch the body check refuses (0: none)
		want     uint64            // adopted epoch (0: none)
		torn     bool
		nextSlot int
		nextGen  uint64
	}{
		{name: "both blank", nextSlot: 0, nextGen: 1},
		{name: "one valid", writes: 1, want: 1, nextSlot: 1, nextGen: 2},
		{name: "newest wins", writes: 2, want: 2, nextSlot: 0, nextGen: 3},
		{name: "newest wins across wrap", writes: 5, want: 5, nextSlot: 1, nextGen: 6},
		{name: "newest corrupt falls back", writes: 2, damage: func(m *memSlots) { flip(m, 1) },
			want: 1, nextSlot: 1, nextGen: 2},
		{name: "both corrupt", writes: 2, damage: func(m *memSlots) { flip(m, 0); flip(m, 1) },
			torn: true, nextSlot: 0, nextGen: 1},
		{name: "unreadable and blank", writes: 0, damage: func(m *memSlots) { m.bad[hdrs.Off(1)] = true },
			torn: true, nextSlot: 0, nextGen: 1},
		{name: "unreadable newest falls back", writes: 2, damage: func(m *memSlots) { m.bad[hdrs.Off(1)] = true },
			want: 1, nextSlot: 1, nextGen: 2},
		{name: "body check rejects newer", writes: 2, reject: 2, want: 1, nextSlot: 1, nextGen: 3},
		{name: "body check rejects all", writes: 1, reject: 1, torn: true, nextSlot: 0, nextGen: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMemSlots(64 << 10)
			w := hdrs
			for e := uint64(1); e <= uint64(tc.writes); e++ {
				if err := w.Write(m, []uint64{e, 100 * e}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.damage != nil {
				tc.damage(m)
			}
			r := hdrs
			body, torn := r.Load(m.Read, func(_ int, _ uint64, body []uint64) bool { return body[0] != tc.reject })
			got := uint64(0)
			if body != nil {
				got = body[0]
				if body[1] != 100*got {
					t.Fatalf("adopted body %v does not round-trip", body)
				}
			}
			if got != tc.want || torn != tc.torn {
				t.Fatalf("adopted epoch %d torn %v, want %d torn %v", got, torn, tc.want, tc.torn)
			}
			if slot, gen := r.Next(); slot != tc.nextSlot || gen != tc.nextGen {
				t.Fatalf("next write = slot %d gen %d, want slot %d gen %d", slot, gen, tc.nextSlot, tc.nextGen)
			}
		})
	}
}

func TestBoxArenaGeometry(t *testing.T) {
	a := NewBoxArena(4096, 64<<10)
	if !a.Valid() {
		t.Fatal("64 KiB arena should be valid")
	}
	wantCap := uint64((64<<10 - BoxSlots*BoxHeaderSize) / BoxRecordSize)
	if a.Capacity() != wantCap {
		t.Fatalf("capacity = %d, want %d", a.Capacity(), wantCap)
	}
	if a.HeaderOff(1) != 4096+BoxHeaderSize {
		t.Fatalf("header slot 1 at %d", a.HeaderOff(1))
	}
	if a.SlotOff(wantCap+3) != a.RecordsOff()+3*BoxRecordSize {
		t.Fatalf("slot wrap: seq %d at %d", wantCap+3, a.SlotOff(wantCap+3))
	}
	if NewBoxArena(0, 0).Valid() {
		t.Fatal("zero arena must be invalid")
	}
}

func TestReplayBoxWrapAndTorn(t *testing.T) {
	const capRecords = 8
	region := make([]byte, capRecords*BoxRecordSize)
	write := func(seq uint64) {
		buf := EncodeBoxRecord(BoxRecord{Seq: seq, Type: BoxEvent, Kind: 2, Subheap: int32(seq)})
		copy(region[(seq%capRecords)*BoxRecordSize:], buf[:])
	}
	// 13 records into an 8-slot ring: slots hold seqs 5..12.
	for seq := uint64(0); seq < 13; seq++ {
		write(seq)
	}
	records, torn := ReplayBox(region, capRecords)
	if torn != 0 {
		t.Fatalf("torn = %d on a clean ring", torn)
	}
	if len(records) != capRecords {
		t.Fatalf("replayed %d records, want %d", len(records), capRecords)
	}
	for i, r := range records {
		if r.Seq != uint64(5+i) {
			t.Fatalf("record %d seq = %d, want %d", i, r.Seq, 5+i)
		}
	}

	// Tear the newest record mid-slot: it drops, everything else survives.
	region[(12%capRecords)*BoxRecordSize+70] ^= 0x01
	records, torn = ReplayBox(region, capRecords)
	if torn != 1 {
		t.Fatalf("torn = %d, want 1", torn)
	}
	if len(records) != capRecords-1 || records[len(records)-1].Seq != 11 {
		t.Fatalf("post-tear replay = %d records, last %+v", len(records), records[len(records)-1])
	}
}
