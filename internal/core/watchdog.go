package core

// Stall watchdog: a background goroutine that detects in-flight sub-heap
// operations holding their lock past Options.Watchdog.StallThreshold. The
// instrumented lock sites (subheap.lockOp/unlockOp) publish hold-start
// metadata in per-sub-heap atomics — op kind first, then a fresh token, then
// the start timestamp LAST, so a scanner that observes a non-zero timestamp
// sees a consistent op/token pair. Each detected stall is journalled once
// (EventStall, de-duplicated per lock acquisition by token), mirrored into
// the black box, and counted into poseidon_stalls_total. Every tick also
// publishes staged black-box records, so the ring stays near-current even on
// an idle heap. The goroutine runs under the heap's supervisor (lifecycle.go).

import (
	"fmt"
	"time"

	"poseidon/internal/obs"
)

type watchdog struct {
	threshold time.Duration
	interval  time.Duration
	// lastToken de-duplicates reports: one EventStall per stalled lock
	// acquisition per sub-heap, no matter how many ticks it stays stalled.
	// Touched only by the watchdog goroutine.
	lastToken []uint64
}

// startWatchdog launches the watchdog goroutine when configured. Called
// from startSupervisor before the heap is shared, so the lock sites' h.wd
// nil check never races a write; h.wd stays set after the supervisor stops
// the goroutine, so the lock sites keep their histograms without a racy
// nil-out.
func (h *Heap) startWatchdog() {
	if h.opts.Watchdog.StallThreshold <= 0 || h.tel == nil {
		return
	}
	w := &watchdog{
		threshold: h.opts.Watchdog.StallThreshold,
		interval:  h.opts.Watchdog.Interval,
		lastToken: make([]uint64, len(h.subheaps)),
	}
	h.wd = w
	h.sup.goWorker(func(stop <-chan struct{}) { h.watchdogLoop(w, stop) })
}

// watchdogLoop scans and drains every interval until stop closes. Close
// publishes whatever was staged after the last tick.
func (h *Heap) watchdogLoop(w *watchdog, stop <-chan struct{}) {
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			h.watchdogScan(w)
			_ = h.FlushBlackbox()
		}
	}
}

// watchdogScan checks every sub-heap's hold-start atomics for an operation
// past the deadline.
func (h *Heap) watchdogScan(w *watchdog) {
	now := time.Now().UnixNano()
	for i, s := range h.subheaps {
		since := s.wdSince.Load()
		if since == 0 {
			continue
		}
		held := time.Duration(now - since)
		if held < w.threshold {
			continue
		}
		// wdSince was stored last, so op/token loaded now are the ones
		// belonging to this acquisition (or a newer one, which is also
		// stalled-or-fine on its own clock and will be re-checked).
		token := s.wdToken.Load()
		if token == w.lastToken[i] {
			continue // this stall is already on record
		}
		w.lastToken[i] = token
		op := obs.Op(s.wdOp.Load())
		h.stallsTotal.Add(1)
		h.tel.Emit(obs.EventStall, i, fmt.Sprintf(
			"op %s holding sub-heap %d lock for %s (threshold %s)",
			op, i, held.Round(time.Millisecond), w.threshold))
	}
}

// InjectStall arms a one-shot test failpoint: the next instrumented lock
// acquisition on the given sub-heap sleeps for d while holding the lock,
// long enough for the watchdog to observe a stall. Errors when the sub-heap
// does not exist; a heap without a watchdog ignores the armed value.
func (h *Heap) InjectStall(shard int, d time.Duration) error {
	if shard < 0 || shard >= len(h.subheaps) {
		return fmt.Errorf("poseidon: no sub-heap %d", shard)
	}
	h.subheaps[shard].stallInject.Store(d.Nanoseconds())
	return nil
}
