package alloctest

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/nvm"
)

// The differential recovery suite is the tentpole's oracle: the SAME
// crashed image, recovered once at width 1 (RecoveryParallelism 1, the
// recovery phases on one worker) and once with an 8-way fan-out, must be
// indistinguishable — identical audit reports, identical recovery
// counters, an identical surviving-pointer fingerprint, and (the strongest
// form) bit-identical persistent images. The schedules are randomized and
// concurrent so -race patrols the worker pool while the assertions patrol
// its semantics.

func recoveryDiffOptions(par int) core.Options {
	return core.Options{
		Subheaps:            8,
		SubheapUserSize:     1 << 20,
		SubheapMetaSize:     256 << 10,
		UndoLogSize:         64 << 10,
		MaxThreads:          16,
		HeapID:              0xD1F2,
		CrashTracking:       true,
		ScrubOnLoad:         true,
		RemoteFreeRings:     true,
		Magazines:           core.MagazineOptions{Capacity: 16, Classes: 4},
		RecoveryParallelism: par,
	}
}

// recProbe is a pre-crash allocation the post-recovery fingerprint probes.
type recProbe struct {
	p   core.NVMPtr
	pat []byte
}

// recoverySchedule drives one worker's seeded mess on its pinned shard:
// plain allocs with persisted payloads, local and cross-shard frees
// (exercising the remote-free rings), magazine-class churn, committed
// transactions — and it deliberately leaves its thread open with an
// uncommitted transaction in flight, so every micro-log lane has rollback
// work when the crash lands.
func recoverySchedule(h *core.Heap, w, seed, ops int) ([]recProbe, error) {
	th, err := h.ThreadOn(w)
	if err != nil {
		return nil, err
	}
	// No Close: the crash must catch magazines populated and the lane open.
	rng := rand.New(rand.NewSource(int64(seed*1000 + w)))
	var probes []recProbe
	var live []core.NVMPtr
	for i := 0; i < ops; i++ {
		switch rng.Intn(5) {
		case 0: // magazine-class churn (64..512 bytes, classes 0..3)
			p, err := th.Alloc(uint64(64 << rng.Intn(3)))
			if err != nil {
				return nil, fmt.Errorf("worker %d op %d: mag alloc: %w", w, i, err)
			}
			live = append(live, p)
		case 1: // larger block with a persisted payload we can probe later
			size := uint64(rng.Intn(1024) + 600)
			p, err := th.Alloc(size)
			if err != nil {
				return nil, fmt.Errorf("worker %d op %d: alloc: %w", w, i, err)
			}
			pat := make([]byte, 32)
			for j := range pat {
				pat[j] = byte(w*151 + i*13 + j)
			}
			if err := th.Persist(p, 0, pat); err != nil {
				return nil, fmt.Errorf("worker %d op %d: persist: %w", w, i, err)
			}
			probes = append(probes, recProbe{p: p, pat: pat})
			live = append(live, p)
		case 2: // free something local or remote (the ring path)
			if len(live) == 0 {
				continue
			}
			k := rng.Intn(len(live))
			if err := th.Free(live[k]); err != nil {
				return nil, fmt.Errorf("worker %d op %d: free: %w", w, i, err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		case 3: // committed transaction: durable, survives recovery
			if _, err := th.TxAlloc(uint64(rng.Intn(512)+64), true); err != nil {
				return nil, fmt.Errorf("worker %d op %d: tx commit: %w", w, i, err)
			}
		case 4: // cross-shard free of another worker's class: ring traffic
			if len(live) < 2 {
				continue
			}
			if err := th.Free(live[0]); err != nil {
				return nil, fmt.Errorf("worker %d op %d: remote free: %w", w, i, err)
			}
			live = live[1:]
		}
	}
	// Leave an uncommitted transaction open: recovery must roll it back.
	for k := 0; k < 3; k++ {
		if _, err := th.TxAlloc(uint64(128<<k), false); err != nil {
			return nil, fmt.Errorf("worker %d: open tx alloc %d: %w", w, k, err)
		}
	}
	return probes, nil
}

// buildCrashedImage runs the concurrent schedules, crashes with a seeded
// random eviction and saves the torn image for repeated recovery.
func buildCrashedImage(t *testing.T, seed int) (string, []recProbe) {
	t.Helper()
	h, err := core.Create(recoveryDiffOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	workers := h.Subheaps()
	probesBy := make([][]recProbe, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			probesBy[w], errs[w] = recoverySchedule(h, w, seed, 120)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	// Undrained ring traffic: shard 0 frees one block owned by each other
	// shard. The owners never run again before the crash, so the entries
	// sit persisted in the rings for recovery to replay.
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w < workers; w++ {
		if len(probesBy[w]) == 0 {
			continue
		}
		if err := th0.Free(probesBy[w][0].p); err != nil {
			t.Fatalf("cross-shard free into shard %d's ring: %v", w, err)
		}
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.5, Seed: int64(seed)}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("diff-%d.img", seed))
	if err := h.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var probes []recProbe
	for _, ps := range probesBy {
		probes = append(probes, ps...)
	}
	return path, probes
}

// recoveryFingerprint is everything one recovery of the image exposes: the
// audit report, the parallelism-independent counters, the recovered image
// bytes, and a read-only probe trace over every pre-crash allocation
// (block size lookup + payload checksum — the surviving-pointer set).
type recoveryFingerprint struct {
	report core.CheckReport
	stats  map[string]uint64
	image  []byte
	probes []string
}

func fingerprintRecovery(t *testing.T, path string, par int, probes []recProbe) recoveryFingerprint {
	t.Helper()
	dev, err := nvm.LoadFile(path, nvm.Options{CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.Load(dev, recoveryDiffOptions(par))
	if err != nil {
		t.Fatalf("Load (parallelism %d): %v", par, err)
	}
	defer h.Close()

	var fp recoveryFingerprint
	// Snapshot the image FIRST: the probe pass below is read-only, but the
	// byte comparison must cover exactly what recovery produced.
	snap := filepath.Join(t.TempDir(), "snap.img")
	if err := h.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	if fp.image, err = os.ReadFile(snap); err != nil {
		t.Fatal(err)
	}

	if fp.report, err = h.Check(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	fp.stats = map[string]uint64{
		// PermissionSwitches is excluded by design: recovery workers issue
		// their own grant/revoke pairs, so the switch count scales with the
		// pool width while nothing persistent changes.
		"recoveredBlocks":     st.RecoveredBlocks,
		"recoveredNoops":      st.RecoveredNoops,
		"recoveredCached":     st.RecoveredCached,
		"invalidFrees":        st.InvalidFrees,
		"doubleFrees":         st.DoubleFrees,
		"remoteDrains":        st.RemoteDrains,
		"quarantinedSubheaps": st.QuarantinedSubheaps,
		"quarantinedBytes":    st.QuarantinedBytes,
	}

	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	for _, pr := range probes {
		size, err := th.BlockSize(pr.p)
		if err != nil {
			fp.probes = append(fp.probes, fmt.Sprintf("gone:%v", err))
			continue
		}
		got := make([]byte, len(pr.pat))
		if err := th.Read(pr.p, 0, got); err != nil {
			fp.probes = append(fp.probes, fmt.Sprintf("unreadable:%v", err))
			continue
		}
		fp.probes = append(fp.probes, fmt.Sprintf("live:%d:%08x:%v",
			size, crc32.ChecksumIEEE(got), bytes.Equal(got, pr.pat)))
	}
	return fp
}

// TestDifferentialParallelRecovery recovers the same randomized crashed
// images at width 1 and with an 8-way fan-out and requires the two
// recoveries to be indistinguishable, down to the persistent image bytes.
func TestDifferentialParallelRecovery(t *testing.T) {
	var sawTx, sawCached, sawDrains bool
	for seed := 1; seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			path, probes := buildCrashedImage(t, seed)
			serial := fingerprintRecovery(t, path, 1, probes)
			fanout := fingerprintRecovery(t, path, 8, probes)

			if !reflect.DeepEqual(serial.report, fanout.report) {
				t.Errorf("audit reports diverge:\nserial:  %+v\nfanout: %+v", serial.report, fanout.report)
			}
			if !reflect.DeepEqual(serial.stats, fanout.stats) {
				t.Errorf("recovery counters diverge:\nserial:  %v\nfanout: %v", serial.stats, fanout.stats)
			}
			if !reflect.DeepEqual(serial.probes, fanout.probes) {
				for i := range serial.probes {
					if serial.probes[i] != fanout.probes[i] {
						t.Errorf("probe %d diverges: serial %q, fanout %q", i, serial.probes[i], fanout.probes[i])
						break
					}
				}
				t.Error("surviving-pointer fingerprints diverge")
			}
			if !bytes.Equal(serial.image, fanout.image) {
				n := 0
				for i := range serial.image {
					if serial.image[i] != fanout.image[i] {
						n++
					}
				}
				t.Errorf("recovered images differ in %d bytes — the fan-out is not byte-identical", n)
			}
			if !serial.report.OK() {
				t.Errorf("recovery audit found problems: %v", serial.report.Problems)
			}
			if serial.stats["recoveredBlocks"] > 0 {
				sawTx = true
			}
			if serial.stats["recoveredCached"] > 0 {
				sawCached = true
			}
			if serial.stats["remoteDrains"] > 0 {
				sawDrains = true
			}
		})
	}
	// Coverage guards: a sweep that never exercised lane rollback, magazine
	// reclaim or ring replay would be vacuously green.
	if !sawTx {
		t.Error("no seed exercised micro-log rollback")
	}
	if !sawCached {
		t.Error("no seed exercised magazine-manifest reclaim")
	}
	if !sawDrains {
		t.Error("no seed exercised remote-free ring replay")
	}
}
