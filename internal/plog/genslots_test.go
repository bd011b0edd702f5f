package plog

import (
	"errors"
	"fmt"
	"testing"

	"poseidon/internal/nvm"
)

// memSlots is an in-memory SlotWriter plus reader whose reads fail at the
// offsets marked bad.
type memSlots struct {
	b   []byte
	bad map[uint64]bool
}

func newMemSlots(n int) *memSlots { return &memSlots{b: make([]byte, n), bad: map[uint64]bool{}} }

func (m *memSlots) Write(off uint64, b []byte) error { copy(m.b[off:], b); return nil }
func (m *memSlots) Flush(off, n uint64) error        { return nil }
func (m *memSlots) Fence()                           {}
func (m *memSlots) Read(off uint64, b []byte) error {
	if m.bad[off] {
		return errors.New("unreadable")
	}
	copy(b, m.b[off:])
	return nil
}

func TestGenSlotsRejectsEveryBitFlip(t *testing.T) {
	p := NewGenSlots(0, 64, 0x1122334455667788, 3)
	m := newMemSlots(128)
	for e := uint64(1); e <= 2; e++ {
		if err := p.Write(m, []uint64{e, e + 10, e + 20}); err != nil {
			t.Fatal(err)
		}
	}
	// Any single-bit flip anywhere in the newest slot — magic, gen, any
	// body word, check — must drop it back to the older generation.
	for bit := uint64(0); bit < p.Size()*8; bit++ {
		m.b[p.Off(1)+bit/8] ^= 1 << (bit % 8)
		body, torn := p.Load(m.Read, nil)
		m.b[p.Off(1)+bit/8] ^= 1 << (bit % 8)
		if torn || body == nil || body[0] != 1 {
			t.Fatalf("bit %d flip: adopted %v torn %v, want generation 1", bit, body, torn)
		}
	}
}

// interruptWriter crashes the device inside a slot write: at the flush
// (the store is issued, nothing flushed) or at the fence (flushed, unfenced).
type interruptWriter struct {
	*nvm.Device
	at     string
	policy nvm.CrashPolicy
}

var errPowerCut = errors.New("power cut")

func (w interruptWriter) Flush(off, n uint64) error {
	if w.at == "flush" {
		_, _ = w.Crash(w.policy)
		return errPowerCut
	}
	return w.Device.Flush(off, n)
}

func (w interruptWriter) Fence() {
	if w.at == "fence" {
		_, _ = w.Crash(w.policy)
	}
}

// TestGenSlotsCrashMidWrite interrupts the write of generation 3 after its
// store and before its fence, under every eviction mode: the reload must
// adopt generation 2 or generation 3, whole, never neither.
func TestGenSlotsCrashMidWrite(t *testing.T) {
	pairs := map[string]GenSlots{
		"box headers": NewBoxArena(4096, 64<<10).Headers(),
		"wide":        NewGenSlots(8192, 512, 0x5741444557414445, 40), // 344 B: tears across lines
	}
	var policies []nvm.CrashPolicy
	for _, m := range []nvm.EvictMode{nvm.EvictNone, nvm.EvictAll} {
		policies = append(policies, nvm.CrashPolicy{Mode: m})
	}
	for seed := int64(1); seed <= 16; seed++ {
		policies = append(policies,
			nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.5, Seed: seed},
			nvm.CrashPolicy{Mode: nvm.EvictTorn, Prob: 0.3, Seed: seed})
	}
	for name, pair := range pairs {
		body := func(gen uint64) []uint64 {
			b := make([]uint64, (pair.Size()-24)/8)
			for i := range b {
				b[i] = gen<<32 | uint64(i)
			}
			return b
		}
		for _, at := range []string{"flush", "fence"} {
			for _, pol := range policies {
				t.Run(fmt.Sprintf("%s/%s/%s/%d", name, at, pol.Mode, pol.Seed), func(t *testing.T) {
					dev, err := nvm.NewDevice(nvm.Options{Capacity: 1 << 20, CrashTracking: true})
					if err != nil {
						t.Fatal(err)
					}
					w := pair
					for gen := uint64(1); gen <= 2; gen++ {
						if err := w.Write(dev, body(gen)); err != nil {
							t.Fatal(err)
						}
					}
					if err := w.Write(interruptWriter{dev, at, pol}, body(3)); err != nil && !errors.Is(err, errPowerCut) {
						t.Fatal(err)
					}
					r := pair
					got, torn := r.Load(dev.Read, nil)
					if got == nil || torn {
						t.Fatalf("no generation adopted (torn %v)", torn)
					}
					gen := got[0] >> 32
					if gen != 2 && gen != 3 {
						t.Fatalf("adopted generation %d, want 2 or 3", gen)
					}
					if fmt.Sprint(got) != fmt.Sprint(body(gen)) {
						t.Fatalf("generation %d body is a blend: %v", gen, got)
					}
					if pol.Mode == nvm.EvictNone && at == "flush" && gen != 2 {
						t.Fatalf("unflushed generation 3 survived EvictNone")
					}
					if at == "fence" && gen != 3 {
						t.Fatalf("flushed generation 3 lost")
					}
				})
			}
		}
	}
}
