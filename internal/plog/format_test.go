package plog_test

import (
	"encoding/hex"
	"testing"

	"poseidon/internal/memblock"
	"poseidon/internal/nvm"
	"poseidon/internal/plog"
)

// TestOnImageFormatsStable pins the encodings built on the shared checksum
// functions to bytes recorded before those functions were folded into
// plog.Mix64 and plog.Checksum: black-box headers and records, cache
// manifest words and remote-free ring words must read back unchanged from
// existing images.
func TestOnImageFormatsStable(t *testing.T) {
	dev, err := nvm.NewDevice(nvm.Options{Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	arena := plog.NewBoxArena(4096, 64<<10)
	hdrs := arena.Headers()
	for gen := 1; gen <= 7; gen++ { // generation 7 lands in slot 0
		if err := hdrs.Write(dev, []uint64{3, 0x1234}); err != nil {
			t.Fatal(err)
		}
	}
	hdr := make([]byte, plog.BoxHeaderSize)
	if err := dev.Read(arena.HeaderOff(0), hdr); err != nil {
		t.Fatal(err)
	}
	const wantHdr = "504f53424c424f58070000000000000003000000000000003412000000000000e820244f8d367f0b" +
		"000000000000000000000000000000000000000000000000"
	if got := hex.EncodeToString(hdr); got != wantHdr {
		t.Errorf("box header (gen 7, epoch 3, nextSeq 0x1234):\n got  %s\n want %s", got, wantHdr)
	}

	rec := plog.EncodeBoxRecord(plog.BoxRecord{
		Seq: 41, Type: plog.BoxEvent, Kind: 7, Subheap: -1, Lane: 3,
		WallNS: 1234567890, DurNS: 55, Aux0: 2, Aux1: 9,
		Detail: "sub-heap 3 quarantined",
	})
	wantRec := "c5b0acb1010716002900000000000000b811806d9bc22105d202964900000000" +
		"ffffffff030000003700000000000000020000000000000009000000000000007375622d6865617020332071756172616e74696e6564"
	for len(wantRec) < 2*plog.BoxRecordSize {
		wantRec += "00"
	}
	if got := hex.EncodeToString(rec[:]); got != wantRec {
		t.Errorf("box record:\n got  %s\n want %s", got, wantRec)
	}

	words := []struct {
		name      string
		got, want uint64
	}{
		{"cache entry (0x1234, 5)", plog.EncodeCacheEntry(0x1234, 5), 0xe80c000a00001235},
		{"cache entry (max, 0xffff)", plog.EncodeCacheEntry(plog.MaxCacheRel, 0xffff), 0x6397ffffffffffff},
		{"ring entry (0x1234, 5)", memblock.EncodeRingEntry(0x1234, 5), 0x7b35500000001235},
		{"ring entry (max, 15)", memblock.EncodeRingEntry(memblock.MaxRingRel, 15), 0xc5c3ffffffffffff},
	}
	for _, w := range words {
		if w.got != w.want {
			t.Errorf("%s = %#x, want %#x", w.name, w.got, w.want)
		}
	}
}
