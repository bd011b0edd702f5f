package alloctest

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/memblock"
)

const (
	oneSubheapWorkers = 4
	oneSubheapRounds  = 6
	oneSubheapBatch   = 24
)

// oneSubheapSizes is worker w's request sizes in round r. The rng is seeded
// only by (round, worker), so the operation multiset is independent of
// goroutine interleaving and the expected end state can be computed from
// the schedule alone.
func oneSubheapSizes(round, w int) []uint64 {
	rng := rand.New(rand.NewSource(int64(round)<<8 | int64(w)))
	sizes := make([]uint64, oneSubheapBatch)
	for i := range sizes {
		sizes[i] = 64 + uint64(rng.Intn(960))
	}
	return sizes
}

// classSize rounds a request up to its power-of-two size class.
func classSize(size uint64) uint64 {
	c := uint64(1) << memblock.MinClassLog
	for c < size {
		c <<= 1
	}
	return c
}

// TestConcurrentOneSubheapSchedule runs four workers on ONE sub-heap, so
// every locked alloc and free contends on the same mutex. Each round a
// worker frees its own previous batch and allocates a fresh one, every
// third allocation transactional (committed immediately, so its micro-log
// append lands inside the undo commit window). A deterministic tail then
// injects three double frees and one interior-pointer free and runs an
// alloc-then-free burst. The end state is checked against values derived
// from the schedule: the live block-size multiset (the last round's
// requests plus one victim block, rounded up to their classes), the
// accepted and rejected operation counters, and a clean audit. Run it under
// -race: every worker's locked alloc, free and micro-log append serializes
// on the one sub-heap mutex.
func TestConcurrentOneSubheapSchedule(t *testing.T) {
	h, err := core.Create(core.Options{
		Subheaps:        1,
		SubheapUserSize: 1 << 20,
		SubheapMetaSize: 512 << 10,
		UndoLogSize:     64 << 10,
		MaxThreads:      8,
		HeapID:          0x5EA1,
		CrashTracking:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	threads := make([]*core.Thread, oneSubheapWorkers)
	for w := range threads {
		th, err := h.ThreadOn(0)
		if err != nil {
			t.Fatal(err)
		}
		defer th.Close()
		threads[w] = th
	}

	prev := make([][]core.NVMPtr, oneSubheapWorkers)
	for round := 0; round < oneSubheapRounds; round++ {
		next := make([][]core.NVMPtr, oneSubheapWorkers)
		var wg sync.WaitGroup
		errs := make([]error, oneSubheapWorkers)
		for w := 0; w < oneSubheapWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := threads[w]
				for _, p := range prev[w] {
					if err := th.Free(p); err != nil {
						errs[w] = fmt.Errorf("round %d worker %d free: %w", round, w, err)
						return
					}
				}
				batch := make([]core.NVMPtr, 0, oneSubheapBatch)
				for i, size := range oneSubheapSizes(round, w) {
					var p core.NVMPtr
					var err error
					if i%3 == 0 {
						p, err = th.TxAlloc(size, true)
					} else {
						p, err = th.Alloc(size)
					}
					if err != nil {
						errs[w] = fmt.Errorf("round %d worker %d alloc %d: %w", round, w, i, err)
						return
					}
					batch = append(batch, p)
				}
				next[w] = batch
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		prev = next
	}

	// Deterministic error tail: three double frees and one interior-pointer
	// free, each rejected off the device record.
	doomed := make([]core.NVMPtr, 3)
	for i := range doomed {
		if doomed[i], err = threads[0].Alloc(128); err != nil {
			t.Fatal(err)
		}
	}
	victim, err := threads[0].Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range doomed {
		if err := threads[0].Free(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range doomed {
		if err := threads[0].Free(p); !errors.Is(err, core.ErrDoubleFree) {
			t.Fatalf("injected double free: %v", err)
		}
	}
	interior := core.PtrFromLoc(h.HeapID(), victim.Loc()+64)
	if err := threads[0].Free(interior); !errors.Is(err, core.ErrInvalidFree) {
		t.Fatalf("injected invalid free: %v", err)
	}

	// Burst tail: alloc-then-free of one block per size, leaving nothing live.
	tailSizes := []uint64{64, 128, 256, 512}
	tail := make([]core.NVMPtr, len(tailSizes))
	for i, sz := range tailSizes {
		if tail[i], err = threads[0].Alloc(sz); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range tail {
		if err := threads[0].Free(p); err != nil {
			t.Fatal(err)
		}
	}

	// Expected end state, from the schedule alone.
	var wantLive []uint64
	for w := 0; w < oneSubheapWorkers; w++ {
		for _, size := range oneSubheapSizes(oneSubheapRounds-1, w) {
			wantLive = append(wantLive, classSize(size))
		}
	}
	wantLive = append(wantLive, classSize(128)) // victim
	slices.Sort(wantLive)
	scheduled := uint64(oneSubheapRounds * oneSubheapWorkers * oneSubheapBatch)
	wantTx := scheduled / 3 // i%3 == 0, and the batch size is a multiple of 3
	wantAllocs := scheduled - wantTx + uint64(len(doomed)+1+len(tailSizes))
	wantFrees := scheduled - uint64(oneSubheapWorkers*oneSubheapBatch) + uint64(len(doomed)+len(tailSizes))

	var live []uint64
	for _, batch := range append(prev, []core.NVMPtr{victim}) {
		for _, p := range batch {
			size, err := threads[0].BlockSize(p)
			if err != nil {
				t.Fatalf("live block %v lost: %v", p, err)
			}
			live = append(live, size)
		}
	}
	slices.Sort(live)
	if !slices.Equal(live, wantLive) {
		t.Fatalf("live sizes diverge from the schedule:\n got %v\nwant %v", live, wantLive)
	}

	report, err := h.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("audit: %v", report.Problems)
	}
	if report.AllocatedBlocks != uint64(len(wantLive)) {
		t.Fatalf("audit counts %d allocated blocks, want %d", report.AllocatedBlocks, len(wantLive))
	}
	st := h.Stats()
	if st.Allocs != wantAllocs || st.TxAllocs != wantTx || st.Frees != wantFrees {
		t.Fatalf("Allocs/TxAllocs/Frees = %d/%d/%d, want %d/%d/%d",
			st.Allocs, st.TxAllocs, st.Frees, wantAllocs, wantTx, wantFrees)
	}
	if st.DoubleFrees != 3 || st.InvalidFrees != 1 {
		t.Fatalf("DoubleFrees/InvalidFrees = %d/%d, want 3/1", st.DoubleFrees, st.InvalidFrees)
	}
}
