package core

// Heap lifecycle: one atomic word, the nvm.Lease the heap attached under.
// Create and Load take a fresh attach generation from the device; a crash
// of the device, or the next Create/Load over it, revokes the previous
// one. The word is zero while the heap is open, gains LeaseClosed on
// Close and LeaseRevoked on revocation, so every entry point's liveness
// check is one atomic load and compare — no lock on the access path.
//
// A revoked heap is detached (the PMO detach semantics): its windows
// refuse every store with ErrFenced, its entry points return ErrFenced,
// and its supervisor — the one owner of the online scrubber and the stall
// watchdog, whose ticks also drain the black box — is stopped by the
// revoke hook before the crash or the successor attach proceeds. So a
// dead heap's background workers can never write into its successor's
// image.

import (
	"fmt"
	"sync"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

// ErrFenced reports use of a heap whose attach generation was revoked:
// the device crashed, or another heap was created or loaded over it. The
// heap is detached; no store it issues reaches the device. Load the device
// again to continue.
var ErrFenced = nvm.ErrFenced

// live is the liveness check of every entry point: nil while the heap is
// open, ErrClosed after Close, ErrFenced once an open heap's attach
// generation is revoked.
func (h *Heap) live() error {
	if s := h.life.State(); s != 0 {
		if s&nvm.LeaseClosed != 0 {
			return ErrClosed
		}
		return ErrFenced
	}
	return nil
}

// supervisor owns a heap's background workers. It stops them on Close or
// on the first revoke of the heap's attach generation, whichever comes
// first, and waits for them to exit.
type supervisor struct {
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// goWorker runs fn on a supervised goroutine; fn returns once stop closes.
func (sv *supervisor) goWorker(fn func(stop <-chan struct{})) {
	sv.wg.Add(1)
	go func() {
		defer sv.wg.Done()
		fn(sv.stop)
	}()
}

// halt stops every worker and waits for them (idempotent).
func (sv *supervisor) halt() {
	sv.once.Do(func() { close(sv.stop) })
	sv.wg.Wait()
}

// startSupervisor launches the configured background workers and arms the
// revoke hook. Called single-threaded from Create/Load before the heap is
// shared, so the lock sites' h.wd nil check never races a write.
func (h *Heap) startSupervisor() {
	h.startScrubber()
	h.startWatchdog()
	h.life.OnRevoke(h.onRevoke)
}

// onRevoke runs on the goroutine that revoked the heap's attach
// generation: it stops the workers and journals the detach once.
func (h *Heap) onRevoke() {
	h.sup.halt()
	if h.life.State()&nvm.LeaseClosed != 0 {
		return // a closed heap has nothing left to fence
	}
	h.tel.Emit(obs.EventFenced, -1, fmt.Sprintf(
		"attach generation %d revoked: heap fenced, background workers stopped", h.life.Gen()))
	h.tel.ClearMirror(h)
}

// Close marks the heap unusable, stops its background workers and, on the
// first Close of a live heap only, persists the final profile snapshot
// and seals the black-box ring (both best-effort: a failed write leaves
// the previous generation valid). A second Close, or a Close after the
// device crashed or was attached again, writes nothing. It does not save;
// call SaveFile first if durability across process restarts is wanted.
func (h *Heap) Close() error {
	first := h.life.Close()
	h.sup.halt()
	if !first {
		return nil
	}
	_ = h.PersistProfile()
	_ = h.FlushBlackbox()
	h.sealBlackbox()
	// Detach the mirror so a shared registry stops staging into a closed
	// heap.
	h.tel.ClearMirror(h)
	return nil
}
