package memblock

import (
	"math/rand"
	"testing"

	"poseidon/internal/plog"
)

func TestRingEntryRoundTrip(t *testing.T) {
	rels := []uint64{0, 1, 63, 4096, MaxRingRel}
	for _, rel := range rels {
		for _, epoch := range []uint8{0, 1, 7, 15} {
			word := EncodeRingEntry(rel, epoch)
			if word == 0 {
				t.Fatalf("EncodeRingEntry(%d, %d) = 0; zero must mean empty", rel, epoch)
			}
			gotRel, gotEpoch, ok := DecodeRingEntry(word)
			if !ok {
				t.Fatalf("DecodeRingEntry(%#x) rejected its own encoding", word)
			}
			if gotRel != rel || gotEpoch != epoch {
				t.Fatalf("round trip (%d, %d) -> (%d, %d)", rel, epoch, gotRel, gotEpoch)
			}
		}
	}
}

func TestRingEntryEpochMasked(t *testing.T) {
	// Tickets beyond the epoch field width wrap; only the low bits survive.
	word := EncodeRingEntry(100, 0x37)
	_, epoch, ok := DecodeRingEntry(word)
	if !ok || epoch != 0x7 {
		t.Fatalf("epoch = %#x, ok = %v; want 0x7, true", epoch, ok)
	}
}

func TestRingEntrySingleBitFlipDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		rel := rng.Uint64() % (MaxRingRel + 1)
		word := EncodeRingEntry(rel, uint8(rng.Intn(16)))
		bit := uint(rng.Intn(64))
		flipped := word ^ 1<<bit
		if flipped == 0 {
			continue // became the empty word, which is not decoded at all
		}
		gotRel, _, ok := DecodeRingEntry(flipped)
		if ok && gotRel == rel {
			// A flip that still decodes must at least change the payload —
			// otherwise the checksum failed to protect the entry.
			t.Fatalf("bit %d flip of %#x went undetected", bit, word)
		}
		if ok {
			t.Fatalf("bit %d flip of %#x decoded as valid entry %#x", bit, word, flipped)
		}
	}
}

func TestRingDecodeRejectsZeroBody(t *testing.T) {
	// A word whose offset field is all-zero cannot be a valid entry even if
	// its checksum matches (the bias guarantees valid bodies are nonzero).
	if _, _, ok := DecodeRingEntry(plog.Mix64(0) &^ ringBodyMask); ok {
		t.Fatal("zero-body word decoded as valid")
	}
}

func TestRingReservePublishDrainWrap(t *testing.T) {
	r := NewRing(4096)
	if r.Armed() {
		t.Fatal("new ring must start disarmed")
	}
	r.Arm()

	// Three full generations exercise ticket wrap-around.
	for gen := 0; gen < 3; gen++ {
		var tickets []uint64
		for i := 0; i < RingSlots; i++ {
			tk, ok := r.Reserve()
			if !ok {
				t.Fatalf("gen %d: ring full after %d reservations", gen, i)
			}
			tickets = append(tickets, tk)
		}
		if _, ok := r.Reserve(); ok {
			t.Fatalf("gen %d: reservation succeeded on a full ring", gen)
		}
		if r.Pending() != RingSlots {
			t.Fatalf("gen %d: Pending = %d, want %d", gen, r.Pending(), RingSlots)
		}

		// Publish out of order; the consumer must still drain in order.
		for i := len(tickets) - 1; i >= 0; i-- {
			r.Publish(tickets[i])
		}
		for i := 0; i < RingSlots; i++ {
			tk, ok := r.PeekDrain(i)
			if !ok {
				t.Fatalf("gen %d: ticket %d not drainable", gen, i)
			}
			if tk != tickets[i] {
				t.Fatalf("gen %d: drain order %d, want %d", gen, tk, tickets[i])
			}
			if off := r.SlotOff(tk); off != 4096+tk%RingSlots*RingSlotBytes {
				t.Fatalf("SlotOff(%d) = %d", tk, off)
			}
		}
		r.Release(RingSlots)
		if r.Pending() != 0 {
			t.Fatalf("gen %d: Pending = %d after full release", gen, r.Pending())
		}
	}
}

func TestRingUnpublishedTicketBlocksDrain(t *testing.T) {
	r := NewRing(0)
	r.Arm()
	t0, _ := r.Reserve()
	t1, _ := r.Reserve()
	r.Publish(t1) // the older ticket t0 stays unpublished
	if _, ok := r.PeekDrain(0); ok {
		t.Fatal("drain must wait for the oldest ticket's publish")
	}
	r.Publish(t0)
	if tk, ok := r.PeekDrain(0); !ok || tk != t0 {
		t.Fatalf("PeekDrain(0) = %d, %v; want %d, true", tk, ok, t0)
	}
	if tk, ok := r.PeekDrain(1); !ok || tk != t1 {
		t.Fatalf("PeekDrain(1) = %d, %v; want %d, true", tk, ok, t1)
	}
}

func TestRingReset(t *testing.T) {
	r := NewRing(0)
	r.Arm()
	tk, _ := r.Reserve()
	r.Publish(tk)
	r.Reset()
	if r.Pending() != 0 {
		t.Fatalf("Pending = %d after Reset", r.Pending())
	}
	if _, ok := r.PeekDrain(0); ok {
		t.Fatal("stale publish survived Reset")
	}
}
