package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

// churn runs n random alloc/free ops on th (sizes 16..2047 B, at most 64
// live blocks) and returns how many frees of blocks th itself allocated
// were rejected. Any other error fails the test.
func churn(t *testing.T, th *Thread, rng *rand.Rand, n int) (rejected int) {
	t.Helper()
	var live []NVMPtr
	for i := 0; i < n; i++ {
		if len(live) > 64 || (len(live) > 0 && rng.Intn(2) == 0) {
			k := rng.Intn(len(live))
			if err := th.Free(live[k]); err != nil {
				rejected++
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		p, err := th.Alloc(uint64(rng.Intn(2032) + 16))
		if errors.Is(err, ErrOutOfMemory) {
			continue
		}
		if err != nil {
			t.Fatalf("op %d: Alloc: %v", i, err)
		}
		live = append(live, p)
	}
	return rejected
}

// TestDeadHeapFenced is the detach regression: a heap whose device crashed
// and was loaded again WITHOUT closing it first must not write into its
// successor's image. Without the fence, the dead heap's online scrubber
// keeps auditing the successor's metadata mid-mutation, "repairs" what it
// misreads, and the successor then rejects legitimate frees as double
// frees or fails allocations with "block already present".
func TestDeadHeapFenced(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tel := obs.New()
			opts := testOptions()
			opts.OnlineScrub = OnlineScrubOptions{Interval: 200 * time.Microsecond}
			opts.Telemetry = tel
			old, err := Create(opts)
			if err != nil {
				t.Fatal(err)
			}
			oldTh := newThread(t, old)
			rng := rand.New(rand.NewSource(seed))
			if r := churn(t, oldTh, rng, 3000); r != 0 {
				t.Fatalf("old heap rejected %d frees before the crash", r)
			}
			kept, err := oldTh.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			keptDev, err := old.RawOffset(kept)
			if err != nil {
				t.Fatal(err)
			}

			if _, err := old.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
				t.Fatal(err)
			}
			h, err := Load(old.Device(), opts)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			defer h.Close()
			th := newThread(t, h)
			if r := churn(t, th, rng, 20000); r != 0 {
				t.Fatalf("successor rejected %d legitimate frees", r)
			}
			th.Close()
			auditHeap(t, h)
			if st := h.Stats(); st.QuarantinedSubheaps != 0 {
				t.Fatalf("successor quarantined %d sub-heaps", st.QuarantinedSubheaps)
			}

			// The dead heap is detached: entry points, Thread ops and raw
			// window stores all fail with ErrFenced.
			if _, err := oldTh.Alloc(64); !errors.Is(err, ErrFenced) {
				t.Fatalf("dead heap Alloc: %v, want ErrFenced", err)
			}
			if err := oldTh.Write(kept, 0, []byte("stale")); !errors.Is(err, ErrFenced) {
				t.Fatalf("dead heap Write: %v, want ErrFenced", err)
			}
			if err := oldTh.Window().WriteU64(keptDev, 1); !errors.Is(err, ErrFenced) {
				t.Fatalf("dead heap window store: %v, want ErrFenced", err)
			}
			if _, err := old.Thread(); !errors.Is(err, ErrFenced) {
				t.Fatalf("dead heap Thread: %v, want ErrFenced", err)
			}
			if err := old.ScrubPass(); !errors.Is(err, ErrFenced) {
				t.Fatalf("dead heap ScrubPass: %v, want ErrFenced", err)
			}

			fenced := 0
			for _, e := range tel.Events() {
				if e.Kind == obs.EventFenced {
					fenced++
				}
			}
			if fenced != 1 {
				t.Fatalf("%d fenced events journalled, want exactly 1", fenced)
			}

			// The revoke stopped the dead heap's supervisor before the
			// crash went ahead.
			select {
			case <-old.sup.stop:
			default:
				t.Fatal("dead heap's supervisor was never stopped")
			}
			exited := make(chan struct{})
			go func() { old.sup.wg.Wait(); close(exited) }()
			select {
			case <-exited:
			case <-time.After(5 * time.Second):
				t.Fatal("dead heap's background workers still running")
			}
			oldTh.Close()
			_ = old.Close()
		})
	}
}

// TestCloseWritesNothingTwiceOrAfterCrash pins Close to one transition of
// the lifecycle word: only the first Close of a live heap persists the
// final profile and seals the black box. A second Close, and a Close
// after the device crashed, issue zero device writes — the latter would
// otherwise put a store into the crashed image that no real power failure
// could have produced.
func TestCloseWritesNothingTwiceOrAfterCrash(t *testing.T) {
	profiled := func(t *testing.T) *Heap {
		opts := testOptions()
		opts.Telemetry = obs.New()
		opts.Profile = ProfileOptions{Rate: 1}
		h, err := Create(opts)
		if err != nil {
			t.Fatal(err)
		}
		th := newThread(t, h)
		for i := 0; i < 16; i++ {
			if _, err := th.Alloc(64); err != nil {
				t.Fatal(err)
			}
		}
		th.Close()
		return h
	}
	unchanged := func(t *testing.T, h *Heap, what string, op func()) {
		t.Helper()
		before := h.DeviceStats()
		if !before.Enabled {
			t.Fatal("device stats disabled")
		}
		op()
		if after := h.DeviceStats(); after != before {
			t.Fatalf("%s: device %+v -> %+v, want no writes, flushes or fences", what, before, after)
		}
	}

	t.Run("second close", func(t *testing.T) {
		h := profiled(t)
		before := h.DeviceStats()
		_ = h.Close()
		if after := h.DeviceStats(); after.Writes == before.Writes {
			t.Fatal("first Close persisted nothing; the second-Close check would be vacuous")
		}
		unchanged(t, h, "second Close", func() { _ = h.Close() })
	})
	t.Run("close after crash", func(t *testing.T) {
		h := profiled(t)
		if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
			t.Fatal(err)
		}
		unchanged(t, h, "Close after Crash", func() { _ = h.Close() })
		h2, err := Load(h.Device(), testOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer h2.Close()
		auditHeap(t, h2)
	})
}

// TestCloseConcurrent races two Closes against threads spinning on the
// lifecycle word: every thread must stop with ErrClosed, the workers must
// be stopped, and a later Close must write nothing.
func TestCloseConcurrent(t *testing.T) {
	opts := testOptions()
	opts.Telemetry = obs.New()
	opts.OnlineScrub = OnlineScrubOptions{Interval: 100 * time.Microsecond}
	opts.Watchdog = WatchdogOptions{StallThreshold: time.Second, Interval: time.Millisecond}
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 4
	errs := make(chan error, readers)
	started := make(chan struct{}, readers)
	for i := 0; i < readers; i++ {
		th := newThread(t, h)
		p, err := th.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer th.Close()
			started <- struct{}{}
			for {
				if _, err := th.ReadU64(p, 0); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < readers; i++ {
		<-started
	}
	closed := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() { _ = h.Close(); closed <- struct{}{} }()
	}
	<-closed
	<-closed
	for i := 0; i < readers; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Fatalf("reader stopped with %v, want ErrClosed", err)
		}
	}
	select {
	case <-h.sup.stop:
	default:
		t.Fatal("Close did not stop the supervisor")
	}
	before := h.DeviceStats()
	_ = h.Close()
	if after := h.DeviceStats(); after != before {
		t.Fatalf("third Close: device %+v -> %+v", before, after)
	}
}

// BenchmarkThreadReadU64Parallel is the user-data read path under parallel
// load: one Thread per goroutine over 2 sub-heaps, each reading a word of
// its own block. Every Thread op passes the heap's liveness check first,
// so any lock taken there serialises this loop across goroutines.
func BenchmarkThreadReadU64Parallel(b *testing.B) {
	opts := testOptions()
	opts.CrashTracking = false
	h, err := Create(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	b.RunParallel(func(pb *testing.PB) {
		th, err := h.Thread()
		if err != nil {
			b.Error(err)
			return
		}
		defer th.Close()
		p, err := th.Alloc(64)
		if err != nil {
			b.Error(err)
			return
		}
		var sum uint64
		for pb.Next() {
			v, err := th.ReadU64(p, 8)
			if err != nil {
				b.Error(err)
				return
			}
			sum += v
		}
		readSink.Add(sum)
	})
}

// readSink keeps the benchmark's reads observable to the compiler.
var readSink atomic.Uint64
