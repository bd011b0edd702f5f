package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

// parallelRecoveryOptions is an 8-sub-heap heap with every recovery surface
// armed: micro-log lanes, remote-free rings, magazines and the load audit.
func parallelRecoveryOptions(par int) Options {
	return Options{
		Subheaps:            8,
		SubheapUserSize:     1 << 20,
		SubheapMetaSize:     256 << 10,
		UndoLogSize:         64 << 10,
		MaxThreads:          16,
		HeapID:              0xFA40,
		CrashTracking:       true,
		ScrubOnLoad:         true,
		RemoteFreeRings:     true,
		Magazines:           MagazineOptions{Capacity: 16, Classes: 4},
		RecoveryParallelism: par,
	}
}

// messyCrashedImage builds a heap with recovery work pending on every
// surface — open transactions in several lanes, populated magazines,
// undrained remote frees — crashes it, and saves the image to a temp file
// so multiple Loads can recover identical copies.
func messyCrashedImage(t *testing.T) string {
	t.Helper()
	opts := parallelRecoveryOptions(1)
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	var threads []*Thread
	for w := 0; w < h.Subheaps(); w++ {
		th, err := h.ThreadOn(w)
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
		var blocks []NVMPtr
		for i := 0; i < 24; i++ {
			p, err := th.Alloc(uint64(64 << (i % 3)))
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, p)
		}
		// Remote frees: push some blocks into ANOTHER sub-heap's ring.
		if w > 0 {
			for i := 0; i < 4; i++ {
				if err := threads[0].Free(blocks[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Leave a transaction open: its lane entries must roll back.
		if _, err := th.TxAlloc(128, false); err != nil {
			t.Fatal(err)
		}
		if _, err := th.TxAlloc(256, false); err != nil {
			t.Fatal(err)
		}
	}
	// Threads stay open (magazines populated, lanes uncommitted): the crash
	// below is the adversarial power cut mid-flight.
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.5, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "messy.img")
	if err := h.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadImage recovers the saved image with the given parallelism.
func loadImage(t *testing.T, path string, par int) *Heap {
	t.Helper()
	dev, err := nvm.LoadFile(path, nvm.Options{CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := parallelRecoveryOptions(par)
	h, err := Load(dev, opts)
	if err != nil {
		t.Fatalf("Load (parallelism %d): %v", par, err)
	}
	return h
}

// recoveryStats is the parallelism-independent subset of HeapStats two
// recoveries of the same image must agree on. PermissionSwitches is
// excluded by construction: worker threads issue their own grant/revoke
// pairs, which changes the switch count but nothing persistent.
func recoveryStats(st HeapStats) map[string]uint64 {
	return map[string]uint64{
		"recoveredBlocks":     st.RecoveredBlocks,
		"recoveredNoops":      st.RecoveredNoops,
		"recoveredCached":     st.RecoveredCached,
		"invalidFrees":        st.InvalidFrees,
		"doubleFrees":         st.DoubleFrees,
		"quarantinedSubheaps": st.QuarantinedSubheaps,
		"quarantinedBytes":    st.QuarantinedBytes,
		"remoteDrains":        st.RemoteDrains,
	}
}

// saveBytes snapshots the persistent image.
func saveBytes(t *testing.T, h *Heap) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.img")
	if err := h.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParallelRecoveryMatchesSerialImage is the core-level byte-identity
// check: recovering the same crashed image at width 1 (one worker) and
// with an 8-way fan-out must produce identical persistent images, audits
// and recovery counters. (The randomized, schedule-driven version lives in
// internal/alloctest; this one pins the invariant close to the machinery.)
func TestParallelRecoveryMatchesSerialImage(t *testing.T) {
	path := messyCrashedImage(t)

	hSerial := loadImage(t, path, 1)
	defer hSerial.Close()
	hPar := loadImage(t, path, 8)
	defer hPar.Close()

	repS, err := hSerial.Check()
	if err != nil {
		t.Fatal(err)
	}
	repP, err := hPar.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !repS.OK() {
		t.Fatalf("serial recovery audit: %v", repS.Problems)
	}
	if !repP.OK() {
		t.Fatalf("parallel recovery audit: %v", repP.Problems)
	}
	if repS.AllocatedBlocks != repP.AllocatedBlocks || repS.FreeBlocks != repP.FreeBlocks {
		t.Fatalf("census diverges: serial %d/%d, parallel %d/%d allocated/free",
			repS.AllocatedBlocks, repS.FreeBlocks, repP.AllocatedBlocks, repP.FreeBlocks)
	}
	if repS.PendingTx != 0 || repP.PendingTx != 0 {
		t.Fatalf("pending tx after recovery: serial %d, parallel %d", repS.PendingTx, repP.PendingTx)
	}
	sS, sP := recoveryStats(hSerial.Stats()), recoveryStats(hPar.Stats())
	for k, v := range sS {
		if sP[k] != v {
			t.Errorf("stat %s diverges: serial %d, parallel %d", k, v, sP[k])
		}
	}
	if hSerial.Stats().RecoveredBlocks == 0 {
		t.Fatal("scenario recovered no tx blocks — the sweep is not exercising lane replay")
	}

	bS, bP := saveBytes(t, hSerial), saveBytes(t, hPar)
	if !bytes.Equal(bS, bP) {
		t.Fatalf("recovered images differ (serial %d bytes, parallel %d bytes): the fan-out is not byte-identical",
			len(bS), len(bP))
	}
}

// TestParallelRecoveryMatchesSerialReference pins recovery against a fixed
// specification rather than a second live implementation: the image and
// counters below were recorded from the original strictly serial load
// (sub-heap logs, then each lane's micro-log rollback, then each lane's
// cache-manifest replay, in order). Every width of the fan-out must keep
// reproducing them. The crashed image is deterministic: messyCrashedImage
// is single-threaded and crashes with a seeded eviction policy.
func TestParallelRecoveryMatchesSerialReference(t *testing.T) {
	const wantImage = "eb6b614453df9cd383bd49bc582aab54fb9a856d363ef78c5513b5f7d0cd71d3"
	wantStats := map[string]uint64{
		"recoveredBlocks":     16,
		"recoveredNoops":      11,
		"recoveredCached":     61,
		"invalidFrees":        0,
		"doubleFrees":         11,
		"quarantinedSubheaps": 0,
		"quarantinedBytes":    0,
		"remoteDrains":        28,
	}
	path := messyCrashedImage(t)
	for _, par := range []int{1, 2, 8} {
		h := loadImage(t, path, par)
		got := recoveryStats(h.Stats())
		for k, v := range wantStats {
			if got[k] != v {
				t.Errorf("width %d: stat %s = %d, reference %d", par, k, got[k], v)
			}
		}
		sum := sha256.Sum256(saveBytes(t, h))
		if img := hex.EncodeToString(sum[:]); img != wantImage {
			t.Errorf("width %d: recovered image sha256 %s, reference %s", par, img, wantImage)
		}
		h.Close()
	}
}

// TestConcurrentQuarantineSameSubheap hammers quarantine on ONE sub-heap
// from many goroutines: exactly one quarantine event may be journaled, the
// first reason wins, and the health state must settle consistently —
// the qmu serialization satellite.
func TestConcurrentQuarantineSameSubheap(t *testing.T) {
	tel := obs.New()
	opts := testOptions()
	opts.Telemetry = tel
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	s := h.subheaps[0]
	const workers = 64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			s.quarantine(fmt.Sprintf("worker %d found corruption", w))
		}(w)
	}
	wg.Wait()

	if !s.isQuarantined() {
		t.Fatal("sub-heap not quarantined")
	}
	reason := s.quarantineReason()
	if reason == "" {
		t.Fatal("quarantine published before its reason")
	}
	events := 0
	for _, e := range tel.Events() {
		if e.Kind == obs.EventQuarantine && e.Subheap == 0 {
			events++
			if e.Detail != reason {
				t.Errorf("journaled reason %q != stored reason %q (first-reason-wins broken)", e.Detail, reason)
			}
		}
	}
	if events != 1 {
		t.Fatalf("journaled %d quarantine events for one sub-heap, want exactly 1", events)
	}
	if got := h.Health(); got != StateDegraded {
		t.Fatalf("Health = %v, want degraded (1/2 quarantined)", got)
	}
}

// TestConcurrentQuarantineHealthConvergence quarantines a majority of
// sub-heaps from concurrent goroutines — the serial-compute-then-store
// race recomputeHealth used to have would let a stale Degraded overwrite
// ReadOnly; with healthMu the final state must always be ReadOnly.
func TestConcurrentQuarantineHealthConvergence(t *testing.T) {
	opts := parallelRecoveryOptions(1)
	opts.HeapID = 0xC0DE
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	const benched = 5 // of 8: a majority, so ReadOnly
	var wg sync.WaitGroup
	wg.Add(benched)
	for i := 0; i < benched; i++ {
		go func(i int) {
			defer wg.Done()
			h.subheaps[i].quarantine("concurrent corruption")
		}(i)
	}
	wg.Wait()

	if got := h.Health(); got != StateReadOnly {
		t.Fatalf("Health = %v after %d/8 concurrent quarantines, want read-only", got, benched)
	}
	if got := h.Stats().QuarantinedSubheaps; got != benched {
		t.Fatalf("QuarantinedSubheaps = %d, want %d", got, benched)
	}
}

// TestParallelScrubQuarantinesBoth corrupts records in two different
// sub-heaps and recovers with an 8-way pool: the concurrent ScrubOnLoad
// audits must bench exactly the two corrupt sub-heaps (one event each) and
// leave the rest serving — quarantine-under-parallelism end to end.
func TestParallelScrubQuarantinesBoth(t *testing.T) {
	tel := obs.New()
	opts := parallelRecoveryOptions(8)
	opts.HeapID = 0xBADC
	opts.Telemetry = tel
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}

	victims := []int{2, 5}
	for w := 0; w < h.Subheaps(); w++ {
		th, err := h.ThreadOn(w)
		if err != nil {
			t.Fatal(err)
		}
		p, err := th.Alloc(128)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range victims {
			if w == v {
				slot := recordSlot(t, h, p)
				if err := h.Device().InjectBitFlip(slot+8, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		th.Close()
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	_ = h.Close()

	h2, err := Load(h.Device(), opts)
	if err != nil {
		t.Fatalf("Load must degrade, not die: %v", err)
	}
	defer h2.Close()

	if got := h2.Stats().QuarantinedSubheaps; got != uint64(len(victims)) {
		t.Fatalf("QuarantinedSubheaps = %d, want %d", got, len(victims))
	}
	for _, v := range victims {
		if !h2.subheaps[v].isQuarantined() {
			t.Errorf("sub-heap %d not quarantined", v)
		}
	}
	perSubheap := map[int]int{}
	for _, e := range tel.Events() {
		if e.Kind == obs.EventQuarantine {
			perSubheap[e.Subheap]++
		}
	}
	for _, v := range victims {
		if perSubheap[v] != 1 {
			t.Errorf("sub-heap %d journaled %d quarantine events, want exactly 1", v, perSubheap[v])
		}
	}
	if got := h2.Health(); got != StateDegraded {
		t.Fatalf("Health = %v, want degraded", got)
	}
	// The in-service majority still allocates.
	th, err := h2.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := th.Alloc(64); err != nil {
		t.Fatalf("healthy sub-heap Alloc after parallel quarantine: %v", err)
	}
	th.Close()
}

// TestRecoveryParallelismValidation pins the option contract: negatives are
// rejected, zero resolves to at least one worker.
func TestRecoveryParallelismValidation(t *testing.T) {
	opts := testOptions()
	opts.RecoveryParallelism = -1
	if _, err := Create(opts); err == nil {
		t.Fatal("Create accepted a negative RecoveryParallelism")
	}
	opts.RecoveryParallelism = 0
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got := h.recoveryParallelism(); got < 1 {
		t.Fatalf("recoveryParallelism() = %d, want >= 1", got)
	}
}
