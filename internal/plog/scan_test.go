package plog

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
)

// scanDevCap spans two 4 MiB nvm chunks so a case can straddle the
// boundary between them.
const scanDevCap = 2 * nvm.ChunkSize

func newScanWindow(t *testing.T) (mpk.Window, *mpk.Unit) {
	t.Helper()
	d, err := nvm.NewDevice(nvm.Options{Capacity: scanDevCap})
	if err != nil {
		t.Fatal(err)
	}
	u := mpk.NewUnit(d.Capacity())
	return mpk.NewWindow(d, u.NewThread(mpk.RightsRW)), u
}

type scanHit struct{ slot, word uint64 }

// TestManifestScan drives the bulk manifest walk over the layouts its
// three users meet: fn must see exactly the non-zero words, in slot order
// and undecoded, and a failed read must call fn for none of them.
func TestManifestScan(t *testing.T) {
	const slots = 512
	valid := EncodeCacheEntry(4096, 1)
	cases := []struct {
		name    string
		base    uint64
		slots   uint64
		words   map[uint64]uint64 // slot → word stored before the scan
		fault   bool              // one transient read fault over the arena
		want    []scanHit
		wantErr error
	}{
		{name: "empty", base: 8192, slots: slots},
		{
			name: "first and last slot", base: 8192, slots: slots,
			words: map[uint64]uint64{0: valid, slots - 1: EncodeCacheEntry(0, 0)},
			want:  []scanHit{{0, valid}, {slots - 1, EncodeCacheEntry(0, 0)}},
		},
		{
			// Undecodable words reach fn as they are: the policy for them
			// is the caller's.
			name: "undecodable words", base: 8192, slots: slots,
			words: map[uint64]uint64{3: 0xDEADBEEF, 4: valid ^ 1},
			want:  []scanHit{{3, 0xDEADBEEF}, {4, valid ^ 1}},
		},
		{
			// So do well-formed entries whose sub-heap or offset no heap
			// geometry holds.
			name: "shard and offset out of range", base: 8192, slots: slots,
			words: map[uint64]uint64{7: EncodeCacheEntry(MaxCacheRel, 65535)},
			want:  []scanHit{{7, EncodeCacheEntry(MaxCacheRel, 65535)}},
		},
		{
			// Slots 31 and 32 sit on either side of the chunk boundary.
			name: "crosses a chunk boundary", base: nvm.ChunkSize - 32*8, slots: slots,
			words: map[uint64]uint64{0: valid, 31: 31, 32: 32, slots - 1: valid},
			want:  []scanHit{{0, valid}, {31, 31}, {32, 32}, {slots - 1, valid}},
		},
		{
			// A slot count that is no multiple of a cacheline's eight
			// words leaves a short last line.
			name: "short last line", base: 8192, slots: 13,
			words: map[uint64]uint64{5: valid, 8: 8, 12: 12},
			want:  []scanHit{{5, valid}, {8, 8}, {12, 12}},
		},
		{
			name: "arena past the device end", base: scanDevCap - 8, slots: 2,
			wantErr: nvm.ErrOutOfRange,
		},
		{
			name: "transient read fault", base: 8192, slots: slots,
			words: map[uint64]uint64{0: valid}, fault: true,
			wantErr: nvm.ErrTransient,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, _ := newScanWindow(t)
			m := NewManifest(c.base, c.slots)
			for k, word := range c.words {
				if err := w.WriteU64(m.WordOff(k), word); err != nil {
					t.Fatal(err)
				}
			}
			if c.fault {
				w.Device().ArmTransientFaults(nvm.TransientFaults{
					Off: m.WordOff(c.slots - 1), Len: 8, Reads: true, MaxFaults: 1,
				})
			}
			// A reused buffer holds stale bytes from an earlier lane;
			// none of them may leak into this scan.
			stale := bytes.Repeat([]byte{0xFF}, int(c.slots*8)+64)
			var got []scanHit
			buf, err := m.Scan(w, stale, func(slot, word uint64) {
				got = append(got, scanHit{slot, word})
			})
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("Scan error = %v, want %v", err, c.wantErr)
			}
			if err != nil {
				if got != nil {
					t.Fatalf("fn saw %v after a failed read", got)
				}
				return
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("fn saw %v, want %v", got, c.want)
			}
			if uint64(len(buf)) != c.slots*8 || &buf[0] != &stale[0] {
				t.Fatalf("Scan did not reuse the caller's buffer")
			}
		})
	}
}

// TestManifestScanGrowsBuffer: a nil or short buffer is replaced by one
// that fits, and the result is returned for the next lane.
func TestManifestScanGrowsBuffer(t *testing.T) {
	w, _ := newScanWindow(t)
	m := NewManifest(8192, 64)
	for _, buf := range [][]byte{nil, make([]byte, 8)} {
		got, err := m.Scan(w, buf, func(uint64, uint64) {})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 64*8 {
			t.Fatalf("len(buf) = %d, want %d", len(got), 64*8)
		}
	}
}

// TestManifestScanChecksEveryPage: the bulk read is PKRU-checked over every
// page it covers, so an access-disabled last page faults the scan just as
// the per-word read of that slot did.
func TestManifestScanChecksEveryPage(t *testing.T) {
	w, u := newScanWindow(t)
	m := NewManifest(nvm.PageSize-8, 2) // slot 1 is on the second page
	if err := u.AssignRange(nvm.PageSize, nvm.PageSize, 1); err != nil {
		t.Fatal(err)
	}
	w.Thread().SetRights(1, mpk.AccessDisable)
	defer func() {
		var pe *mpk.ProtectionError
		if r := recover(); r == nil {
			t.Fatal("scan over an access-disabled page did not fault")
		} else if e, ok := r.(error); !ok || !errors.As(e, &pe) || pe.Offset != nvm.PageSize {
			t.Fatalf("fault = %v, want a load ProtectionError at page %d", r, nvm.PageSize)
		}
	}()
	_, _ = m.Scan(w, nil, func(uint64, uint64) {})
}

// TestMicroLogEntriesBulk: Entries decodes count entries from one read of
// the entry area, including when that area straddles a chunk boundary,
// and a failed read returns no entries.
func TestMicroLogEntriesBulk(t *testing.T) {
	cases := []struct {
		name  string
		base  uint64
		count int
		fault bool
	}{
		{name: "empty", base: 0},
		{name: "one", base: 0, count: 1},
		{name: "many", base: 0, count: 200},
		{name: "crosses a chunk boundary", base: nvm.ChunkSize - 1024, count: 200},
		{name: "transient read fault", base: 0, count: 3, fault: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, _ := newScanWindow(t)
			l, err := OpenMicroLog(w, c.base, 8192)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]MicroEntry, c.count)
			for i := range want {
				want[i] = MicroEntry{Offset: uint64(i+1) << 12, Size: 64 << (i % 4)}
				if err := l.Append(want[i]); err != nil {
					t.Fatal(err)
				}
			}
			if c.fault {
				w.Device().ArmTransientFaults(nvm.TransientFaults{
					Off: c.base + microHeaderSize + microEntrySize, Len: 8, Reads: true, MaxFaults: 1,
				})
			}
			got, err := l.Entries()
			if c.fault {
				if !errors.Is(err, nvm.ErrTransient) || got != nil {
					t.Fatalf("Entries = %v, %v; want nil, ErrTransient", got, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Entries = %v, want %v", got, want)
			}
		})
	}
}
