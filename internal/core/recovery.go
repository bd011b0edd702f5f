// Crash recovery's load tail (paper §5.8): everything Load does after the
// superblock log has replayed is per-sub-heap independent — each sub-heap's
// undo log, the micro-log rollbacks and cache-manifest frees targeting it,
// and its fsck audit touch only that sub-heap's metadata region — so it runs
// as four phases, each spread over a bounded worker pool sized by
// Options.RecoveryParallelism. Width 1 runs the same phases on one worker;
// there is no other recovery path.
//
// Every width recovers a crashed image to the same bytes because of how the
// work is split. The differential suite in internal/alloctest compares
// width 1 with width 8 image for image, and
// TestParallelRecoveryMatchesSerialReference pins widths 1, 2 and 8 to the
// image and counters recorded from the original strictly serial load.
//
//   - Phase 1 recovers every sub-heap's own logs concurrently; the work was
//     already self-contained under the sub-heap lock.
//   - Phase 2 scans every micro lane and cache manifest read-only.
//   - Phase 3 replays the scanned entries grouped BY TARGET SUB-HEAP, not
//     by lane: a sub-heap's mutations depend only on its own projection of
//     the global (lane, position) replay order, and replaying its entries
//     in exactly that order — lanes ascending, positions ascending — from a
//     single worker yields the same sub-heap image at every width.
//     Replaying lanes concurrently instead would interleave frees from
//     different lanes into the same free list nondeterministically.
//   - Phase 4 truncates replayed lanes and clears processed manifest words,
//     one worker per lane, after every free from phase 3 is durable — the
//     clear-after-free ordering that makes a crash at any interior point
//     re-recover idempotently (surviving entries replay as no-ops against
//     already-free blocks).
//
// Barriers between phases keep the crash-safety argument one-directional:
// nothing is erased (truncate, manifest clear) until everything it covers
// is durably replayed, and mirrors refresh only after the full audit joins.

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
)

// recoveryParallelism resolves Options.RecoveryParallelism: 0 means
// GOMAXPROCS. Negative values never get here; Options.validate rejects them.
func (h *Heap) recoveryParallelism() int {
	if p := h.opts.RecoveryParallelism; p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// forEachRecovery runs fn(worker, task) for every task in [0, n) on up to
// par workers. With par <= 1 it is a plain in-order loop that stops at the
// first error. With more workers every task runs to completion and the
// error of the LOWEST-numbered failing task is returned: aggregation is
// deterministic no matter how the pool interleaved, so a corrupt image
// yields the same fatal error at every width. Workers pull tasks from a
// shared counter (work stealing), bounding the pool while keeping long
// tasks from serializing behind short ones.
func (h *Heap) forEachRecovery(n, par int, fn func(worker, task int) error) error {
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// recWorker is one recovery worker's execution context: its own protection
// thread (mpk.Thread is register-like state and must never be shared
// between goroutines) and its own device window so attribution recording
// stays owner-serialized — each worker charges ClassRecovery through its
// own recorder into the shared (atomic) attribution table.
type recWorker struct {
	th  *mpk.Thread
	win mpk.Window
	buf []byte // phase 2's manifest read buffer, reused lane to lane
}

// newRecWorkers builds par worker contexts. Threads are created through the
// unit so grant/revoke work under every protection mode, including a sealed
// ProtectMPKHardened unit (the authority vets the switch call sites, not
// the thread set).
func (h *Heap) newRecWorkers(par int) []recWorker {
	ws := make([]recWorker, par)
	for i := range ws {
		th := h.unit.NewThread(defaultRights(h.opts))
		win := mpk.NewWindow(h.dev, th)
		if h.tel != nil {
			win = win.WithRecorder(nvm.NewAttrRecorder(h.tel.Attribution(), nvm.ClassRecovery))
		}
		ws[i] = recWorker{th: th, win: win}
	}
	return ws
}

// wrapLaneErr dresses a lane's fatal recovery error: corruption-class
// failures get the ErrCorruptHeap prefix, device-class failures pass
// through with position context only.
func wrapLaneErr(prefix string, lane int, err error) error {
	if err == nil {
		return nil
	}
	if !quarantinable(err) {
		return fmt.Errorf("%s %d: %w", prefix, lane, err)
	}
	return fmt.Errorf("%w: %s %d: %v", ErrCorruptHeap, prefix, lane, err)
}

// txItem is one scanned micro-log rollback: free the block at device
// offset dev in sub-heap sub. lane is kept for latency attribution and
// error context.
type txItem struct {
	sub, lane int
	dev       uint64
}

// manItem is one scanned, decodable cache-manifest entry: return the block
// at user-relative offset rel to sub-heap sub, then clear manifest word
// slot of lane.
type manItem struct {
	sub, lane int
	slot, rel uint64
}

// laneScan is phase 2's read-only harvest of one lane.
type laneScan struct {
	tx         []txItem
	txNonEmpty bool // the micro log held entries, so phase 4 must truncate
	man        []manItem
}

// recoverFanout is the load tail after the superblock replay: the four
// phases documented at the top of this file, on par workers.
func (h *Heap) recoverFanout(par int) error {
	// Phase 1: per-sub-heap undo-log recovery, ring replay and reseeding.
	// Undo replay may already revert a logged allocation; phase 3's
	// rollback of it is then rejected by the hash-table check and counts
	// as a no-op — exactly the idempotency §5.8 relies on.
	err := h.forEachRecovery(len(h.subheaps), par, func(_, i int) error {
		s := h.subheaps[i]
		err := h.retry(s.recoverLogs)
		if err == nil {
			return nil
		}
		if !quarantinable(err) {
			return fmt.Errorf("sub-heap %d: %w", s.id, err)
		}
		s.quarantine(fmt.Sprintf("log recovery failed: %v", err))
		return nil
	})
	if err != nil {
		return err
	}

	workers := h.newRecWorkers(par)

	// Phase 2: read-only scan of every lane's micro log and cache manifest.
	// Manifest words name blocks a magazine held at the crash; replaying
	// them keeps a crash with populated magazines from leaking them.
	scans := make([]laneScan, h.lay.laneCount)
	err = h.forEachRecovery(h.lay.laneCount, par, func(w, i int) error {
		return h.scanLane(&workers[w], i, &scans[i])
	})
	if err != nil {
		return err
	}

	// Bucket the harvest by target sub-heap, preserving each sub-heap's
	// projection of the global replay order — lanes ascending, positions
	// ascending, micro-log rollbacks before manifest frees. This grouping
	// is the byte-identity argument: sub-heap s's metadata mutations are a
	// pure function of the sequence of frees applied to s, and that
	// sequence is the same at every width.
	txBy := make([][]txItem, len(h.subheaps))
	manBy := make([][]manItem, len(h.subheaps))
	clears := make([][]bool, h.lay.laneCount)
	for lane := range scans {
		for _, it := range scans[lane].tx {
			txBy[it.sub] = append(txBy[it.sub], it)
		}
		for _, it := range scans[lane].man {
			manBy[it.sub] = append(manBy[it.sub], it)
		}
		if len(scans[lane].man) > 0 {
			clears[lane] = make([]bool, h.lay.magSlots)
		}
	}

	// Phase 3: replay, one worker per sub-heap. Workers only mark clears —
	// each manifest slot belongs to exactly one entry and each entry to
	// exactly one sub-heap, so the marks are disjoint writes.
	err = h.forEachRecovery(len(h.subheaps), par, func(_, i int) error {
		return h.retry(func() error {
			return h.replaySubheap(h.subheaps[i], txBy[i], manBy[i], clears)
		})
	})
	if err != nil {
		return err
	}

	// Phase 4: truncate replayed lanes and clear processed manifest words.
	// Runs only after every replay joined: erasing a log entry before its
	// free is durable would turn a crash here into a leak.
	return h.forEachRecovery(h.lay.laneCount, par, func(w, i int) error {
		return h.retry(func() error {
			return h.finalizeLane(&workers[w], i, &scans[i], clears[i])
		})
	})
}

// scanLane reads lane's micro log and cache manifest without mutating
// anything, collecting the replay work into out. Each touches the device
// with one bulk read (plus the micro log's count word) and is decoded from
// DRAM: the micro-log entries by MicroLog.Entries, the manifest by
// Manifest.Scan into the worker's reused buffer. Invalid manifest entries
// are journaled once and left in place for the audit. Safe to re-run (the
// retry wrapper may): the micro-log harvest is rebuilt on every attempt,
// Scan calls its fn only after its read succeeded, and the findings are
// journaled only after the scan succeeds.
func (h *Heap) scanLane(w *recWorker, lane int, out *laneScan) error {
	err := h.retry(func() error {
		out.tx = out.tx[:0]
		out.txNonEmpty = false
		h.grant(w.th)
		ml, err := plog.OpenMicroLog(w.win, h.lay.laneBase(lane), h.lay.laneSize)
		if err != nil {
			h.revoke(w.th)
			return err
		}
		if ml.IsEmpty() {
			h.revoke(w.th)
			return nil
		}
		entries, err := ml.Entries()
		h.revoke(w.th)
		if err != nil {
			return err
		}
		out.txNonEmpty = true
		for _, e := range entries {
			sub := uint16(e.Offset >> subheapShift)
			off := e.Offset & offsetMask
			dev, err := h.lay.locToDevice(sub, off)
			if err != nil {
				continue // stale entry pointing nowhere valid; skip
			}
			out.tx = append(out.tx, txItem{sub: int(sub), lane: lane, dev: dev})
		}
		return nil
	})
	if err != nil {
		return wrapLaneErr("micro lane", lane, err)
	}
	if h.lay.magSlots == 0 {
		return nil
	}
	var findings []string
	man := plog.NewManifest(h.lay.laneManifestBase(lane), h.lay.magSlots)
	err = h.retry(func() error {
		var err error
		w.buf, err = man.Scan(w.win, w.buf, func(k, word uint64) {
			rel, shard, ok := plog.DecodeCacheEntry(word)
			if !ok || int(shard) >= h.lay.subheaps || rel >= h.lay.userSize {
				findings = append(findings, fmt.Sprintf(
					"cache manifest %d slot %d: invalid entry %#x", lane, k, word))
				return
			}
			out.man = append(out.man, manItem{sub: int(shard), lane: lane, slot: k, rel: rel})
		})
		return err
	})
	if err != nil {
		return wrapLaneErr("cache manifest", lane, err)
	}
	for _, f := range findings {
		h.tel.Emit(obs.EventScrubFinding, -1, f)
	}
	return nil
}

// replaySubheap applies one sub-heap's bucketed replay work in replay
// order: micro-log rollbacks first, manifest frees second, marking the
// manifest words phase 4 may clear. The per-entry semantics live in
// replayTxEntry/replayManifestEntry (heap.go).
func (h *Heap) replaySubheap(s *subheap, tx []txItem, man []manItem, clears [][]bool) error {
	for _, it := range tx {
		if err := h.replayTxEntry(s, it.lane, it.dev); err != nil {
			return wrapLaneErr("micro lane", it.lane, err)
		}
	}
	for _, it := range man {
		clear, err := h.replayManifestEntry(s, it.rel)
		if err != nil {
			// Only non-quarantinable errors escape replayManifestEntry
			// (corruption quarantines in place), so no ErrCorruptHeap prefix.
			return fmt.Errorf("cache manifest %d: %w", it.lane, err)
		}
		if clear {
			clears[it.lane][it.slot] = true
		}
	}
	return nil
}

// finalizeLane truncates lane's replayed micro log and clears its processed
// manifest words — the durable statement that this lane's recovery work is
// done. Idempotent: re-running after a transient retry (or a crash and a
// fresh Load) redoes writes that are already in their final state.
func (h *Heap) finalizeLane(w *recWorker, lane int, sc *laneScan, clears []bool) error {
	if sc.txNonEmpty {
		h.grant(w.th)
		ml, err := plog.OpenMicroLog(w.win, h.lay.laneBase(lane), h.lay.laneSize)
		if err == nil {
			err = ml.Truncate()
		}
		h.revoke(w.th)
		if err != nil {
			return wrapLaneErr("micro lane", lane, err)
		}
	}
	if len(clears) == 0 {
		return nil
	}
	man := plog.NewManifest(h.lay.laneManifestBase(lane), h.lay.magSlots)
	cleared := 0
	for slot, clear := range clears {
		if !clear {
			continue
		}
		off := man.WordOff(uint64(slot))
		h.grant(w.th)
		werr := w.win.WriteU64(off, 0)
		var ferr error
		if werr == nil {
			ferr = w.win.Flush(off, 8)
		}
		h.revoke(w.th)
		if werr != nil {
			return wrapLaneErr("cache manifest", lane, werr)
		}
		if ferr != nil {
			return wrapLaneErr("cache manifest", lane, ferr)
		}
		cleared++
	}
	if cleared > 0 {
		w.win.Fence()
	}
	return nil
}
