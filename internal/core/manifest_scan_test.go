package core

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"poseidon/internal/nvm"
	"poseidon/internal/plog"
)

// TestLoadRetriesManifestReadFault arms one transient read fault over the
// whole cache-manifest arena of a crashed image with populated magazines.
// Phase 2 reads each lane's manifest in one bulk read, so the fault fails
// that read; the retry wrapper must re-scan the lane and recover exactly
// the image a fault-free Load recovers.
func TestLoadRetriesManifestReadFault(t *testing.T) {
	path := messyCrashedImage(t)
	for _, par := range []int{1, 4} {
		ref := loadImage(t, path, par)
		refImage := sha256.Sum256(saveBytes(t, ref))
		refStats := recoveryStats(ref.Stats())
		lay := ref.lay
		ref.Close()
		if refStats["recoveredCached"] == 0 {
			t.Fatal("image has no populated manifests; the fault would miss")
		}

		dev, err := nvm.LoadFile(path, nvm.Options{CrashTracking: true})
		if err != nil {
			t.Fatal(err)
		}
		dev.ArmTransientFaults(nvm.TransientFaults{
			Off:       lay.manifestOff,
			Len:       uint64(lay.laneCount) * lay.magSlots * 8,
			Reads:     true,
			MaxFaults: 1,
		})
		h, err := Load(dev, parallelRecoveryOptions(par))
		dev.DisarmTransientFaults()
		if err != nil {
			t.Fatalf("width %d: Load: %v", par, err)
		}
		if got := h.Stats().TransientRetries; got != 1 {
			t.Errorf("width %d: TransientRetries = %d, want 1", par, got)
		}
		if got := recoveryStats(h.Stats()); !reflect.DeepEqual(got, refStats) {
			t.Errorf("width %d: recovery stats %v, fault-free %v", par, got, refStats)
		}
		if img := sha256.Sum256(saveBytes(t, h)); img != refImage {
			t.Errorf("width %d: recovered image differs from the fault-free Load", par)
		}
		h.Close()
	}
}

// perWordManifestAudit is the word-at-a-time manifest audit Check ran
// before the bulk Manifest.Scan: one ReadU64 per slot, the same
// classification and the same problem text. It is the reference
// TestCheckManifestMatchesPerWordWalk compares Check with.
func perWordManifestAudit(t *testing.T, h *Heap) (pending uint64, problems []string) {
	t.Helper()
	cached := map[uint64]string{}
	for i := 0; i < h.lay.laneCount; i++ {
		base := h.lay.laneManifestBase(i)
		for k := uint64(0); k < h.lay.magSlots; k++ {
			word, err := h.dev.ReadU64(base + k*8)
			if err != nil {
				t.Fatal(err)
			}
			if word == 0 {
				continue
			}
			rel, shard, ok := plog.DecodeCacheEntry(word)
			switch {
			case !ok:
				problems = append(problems, fmt.Sprintf("lane %d manifest slot %d: corrupt entry %#x", i, k, word))
			case int(shard) >= h.lay.subheaps:
				problems = append(problems, fmt.Sprintf("lane %d manifest slot %d: sub-heap %d out of range", i, k, shard))
			case rel >= h.lay.userSize:
				problems = append(problems, fmt.Sprintf("lane %d manifest slot %d: offset %#x outside user region", i, k, rel))
			default:
				key := uint64(shard)<<subheapShift | rel
				at := fmt.Sprintf("lane %d slot %d", i, k)
				if prev, dup := cached[key]; dup {
					problems = append(problems, fmt.Sprintf(
						"%s: block sub=%d off=%#x already cached at %s", at, shard, rel, prev))
					continue
				}
				cached[key] = at
				pending++
			}
		}
	}
	return pending, problems
}

// TestCheckManifestMatchesPerWordWalk damages the manifests of a crashed
// image with populated magazines — a corrupt word, an out-of-range sub-heap,
// an out-of-region offset and a block cached twice — and requires Check's
// PendingCached and manifest problem list to equal the per-word reference,
// in the same order and with the same text.
func TestCheckManifestMatchesPerWordWalk(t *testing.T) {
	path := messyCrashedImage(t)
	dev, err := nvm.LoadFile(path, nvm.Options{CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Attach(dev, parallelRecoveryOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	// Damage the first lane holding a cached entry, in slots past the
	// magazines' positional range (Classes × Capacity), which stay empty.
	mo := parallelRecoveryOptions(1).Magazines
	empty := uint64(mo.Classes * mo.Capacity)
	lane, valid := -1, uint64(0)
	for i := 0; i < h.lay.laneCount && lane < 0; i++ {
		for k := uint64(0); k < empty; k++ {
			w, err := dev.ReadU64(h.lay.laneManifestBase(i) + k*8)
			if err != nil {
				t.Fatal(err)
			}
			if w != 0 {
				lane, valid = i, w
				break
			}
		}
	}
	if lane < 0 {
		t.Fatal("no lane holds a cached entry")
	}
	man := plog.NewManifest(h.lay.laneManifestBase(lane), h.lay.magSlots)
	damage := []uint64{
		0xDEADBEEF, // corrupt: the checksum does not match
		plog.EncodeCacheEntry(0, uint16(h.lay.subheaps)),
		plog.EncodeCacheEntry(h.lay.userSize, 0),
		valid, // the same block cached twice
	}
	for i, w := range damage {
		if err := dev.PersistU64(man.WordOff(empty+uint64(i)), w); err != nil {
			t.Fatal(err)
		}
	}
	// The last slot too, so the scan's upper bound is exercised.
	if err := dev.PersistU64(man.WordOff(man.Slots()-1), 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}

	wantPending, wantProblems := perWordManifestAudit(t, h)
	if len(wantProblems) != len(damage)+1 {
		t.Fatalf("reference found %d problems, want %d: %v", len(wantProblems), len(damage)+1, wantProblems)
	}
	report, err := h.Check()
	if err != nil {
		t.Fatal(err)
	}
	if report.PendingCached != wantPending {
		t.Errorf("PendingCached = %d, per-word reference %d", report.PendingCached, wantPending)
	}
	if !reflect.DeepEqual(report.Problems, wantProblems) {
		t.Errorf("problems:\n got %q\nwant %q", report.Problems, wantProblems)
	}
}

// TestCheckManifestReadFailureIsOneProblemPerLane pins the one reporting
// change of the bulk scan: a lane whose manifest cannot be read yields one
// "read failed" problem for the lane, not one per slot, and the other
// lanes are still audited.
func TestCheckManifestReadFailureIsOneProblemPerLane(t *testing.T) {
	path := messyCrashedImage(t)
	dev, err := nvm.LoadFile(path, nvm.Options{CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Attach(dev, parallelRecoveryOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := h.Check()
	if err != nil {
		t.Fatal(err)
	}
	dev.ArmTransientFaults(nvm.TransientFaults{
		Off: h.lay.laneManifestBase(1), Len: h.lay.magSlots * 8, Reads: true,
	})
	report, err := h.Check()
	dev.DisarmTransientFaults()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Problems) != len(clean.Problems)+1 {
		t.Fatalf("problems = %q, want the clean audit's plus one", report.Problems)
	}
	var failed []string
	for _, p := range report.Problems {
		if strings.HasPrefix(p, "lane 1 manifest: read failed: ") {
			failed = append(failed, p)
		}
	}
	if len(failed) != 1 || !strings.Contains(failed[0], nvm.ErrTransient.Error()) {
		t.Fatalf("read-failure problems = %q, want one for lane 1", failed)
	}
}
