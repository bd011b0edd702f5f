package nvm

import (
	"errors"
	"sync/atomic"
)

// ErrFenced reports a store through a revoked attach generation: the heap
// that issued it was detached from the device by a crash or by a later
// attach, and its writes would land in a successor's image. The store is
// refused before it touches the device.
var ErrFenced = errors.New("nvm: store through a revoked attach generation")

// Lease lifecycle bits. A lease starts with the word at zero (open).
const (
	// LeaseClosed is set once, by the holder's Close.
	LeaseClosed uint32 = 1 << 0
	// LeaseRevoked is set once, by a crash of the device or a later
	// Acquire; stores through a revoked lease fail with ErrFenced.
	LeaseRevoked uint32 = 1 << 1
)

// Lease is one attach generation of a Device: the lifecycle word of the
// heap that holds it. The device hands out one lease per writable attach
// (Acquire); a crash or the next Acquire revokes the previous one, which
// fences every store the old holder still issues through its windows.
//
// The zero value is an unregistered lease (generation 0) that nothing but
// Close ever changes — the form a read-only inspection attach uses, since
// it must neither take nor revoke a generation.
type Lease struct {
	gen   uint64
	state atomic.Uint32
	// hook runs once, on the goroutine that revokes the lease (or on the
	// one registering it, if the revoke came first).
	hook atomic.Pointer[func()]
}

// Gen returns the attach generation (0 for an unregistered lease).
func (l *Lease) Gen() uint64 { return l.gen }

// State returns the lifecycle word: zero while open, else a combination of
// LeaseClosed and LeaseRevoked.
func (l *Lease) State() uint32 { return l.state.Load() }

// Revoked reports whether the lease was revoked.
func (l *Lease) Revoked() bool { return l.state.Load()&LeaseRevoked != 0 }

// Close moves an open lease to closed. It reports whether this call did
// so: false when the lease was already closed or revoked.
func (l *Lease) Close() bool { return l.state.CompareAndSwap(0, LeaseClosed) }

// OnRevoke registers f to run once when the lease is revoked — at once if
// it already was. The revoking goroutine runs it synchronously, so a hook
// that stops background writers has them stopped before the crash or the
// successor attach proceeds. A later registration replaces an earlier one
// that has not run.
func (l *Lease) OnRevoke(f func()) {
	l.hook.Store(&f)
	if l.Revoked() {
		l.runHook()
	}
}

func (l *Lease) revoke() {
	for {
		s := l.state.Load()
		if s&LeaseRevoked != 0 {
			return
		}
		if l.state.CompareAndSwap(s, s|LeaseRevoked) {
			break
		}
	}
	l.runHook()
}

func (l *Lease) runHook() {
	if f := l.hook.Swap(nil); f != nil {
		(*f)()
	}
}

// Acquire hands out a new attach generation and revokes the previous
// holder's, if any.
func (d *Device) Acquire() *Lease {
	l := &Lease{gen: d.gens.Add(1)}
	if old := d.lease.Swap(l); old != nil {
		old.revoke()
	}
	return l
}

// revokeAttach revokes the current lease (a power failure ends every
// attach).
func (d *Device) revokeAttach() {
	if old := d.lease.Swap(nil); old != nil {
		old.revoke()
	}
}
