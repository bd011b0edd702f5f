package mpk

import "poseidon/internal/nvm"

// Window is a protection-checked view of an NVMM device, bound to one
// thread's PKRU. Every access is validated against the page keys exactly as
// the MMU would; a denied access panics with a *ProtectionError — the moral
// equivalent of the SIGSEGV a real pkey violation raises.
//
// All of Poseidon's own stores, and all user stores in the examples, go
// through a Window, so the metadata region is protected from both stray
// program writes and allocator bugs. The same funnel fences a detached
// heap: once the unit's attach generation is revoked, every store, zero,
// flush and hole punch returns nvm.ErrFenced without touching the device.
type Window struct {
	dev    *nvm.Device
	thread *Thread
	// rec, when non-nil, charges every device op issued through this window
	// to the recorder's current operation class (telemetry attribution).
	// The off path pays exactly one nil check per op.
	rec *nvm.AttrRecorder
}

// NewWindow binds a device view to a thread.
func NewWindow(dev *nvm.Device, thread *Thread) Window {
	return Window{dev: dev, thread: thread}
}

// WithRecorder returns a copy of the window that charges its device ops to
// rec. Windows are values, so views derived from the copy share rec —
// retagging the recorder retags them all.
func (w Window) WithRecorder(rec *nvm.AttrRecorder) Window {
	w.rec = rec
	return w
}

// Recorder returns the attribution recorder, or nil.
func (w Window) Recorder() *nvm.AttrRecorder { return w.rec }

// Device returns the underlying device.
func (w Window) Device() *nvm.Device { return w.dev }

// Thread returns the bound thread.
func (w Window) Thread() *Thread { return w.thread }

// fenced refuses a store through a revoked attach generation.
func (w Window) fenced() error {
	if l := w.thread.lease; l != nil && l.Revoked() {
		return nvm.ErrFenced
	}
	return nil
}

func (w Window) faultStore(off, n uint64) {
	if e := w.thread.checkStore(off, n); e != nil {
		panic(e)
	}
}

func (w Window) faultLoad(off, n uint64) {
	if e := w.thread.checkLoad(off, n); e != nil {
		panic(e)
	}
}

// Write stores b at off, faulting if the PKRU denies any covered page.
func (w Window) Write(off uint64, b []byte) error {
	if err := w.fenced(); err != nil {
		return err
	}
	w.faultStore(off, uint64(len(b)))
	if err := w.dev.Write(off, b); err != nil {
		return err
	}
	if w.rec != nil {
		w.rec.Write(uint64(len(b)))
	}
	return nil
}

// Read loads len(b) bytes at off.
func (w Window) Read(off uint64, b []byte) error {
	w.faultLoad(off, uint64(len(b)))
	return w.dev.Read(off, b)
}

// WriteU64 stores a little-endian 8-byte value.
func (w Window) WriteU64(off uint64, v uint64) error {
	if err := w.fenced(); err != nil {
		return err
	}
	w.faultStore(off, 8)
	if err := w.dev.WriteU64(off, v); err != nil {
		return err
	}
	if w.rec != nil {
		w.rec.Write(8)
	}
	return nil
}

// ReadU64 loads a little-endian 8-byte value.
func (w Window) ReadU64(off uint64) (uint64, error) {
	w.faultLoad(off, 8)
	return w.dev.ReadU64(off)
}

// WriteU32 stores a little-endian 4-byte value.
func (w Window) WriteU32(off uint64, v uint32) error {
	if err := w.fenced(); err != nil {
		return err
	}
	w.faultStore(off, 4)
	if err := w.dev.WriteU32(off, v); err != nil {
		return err
	}
	if w.rec != nil {
		w.rec.Write(4)
	}
	return nil
}

// ReadU32 loads a little-endian 4-byte value.
func (w Window) ReadU32(off uint64) (uint32, error) {
	w.faultLoad(off, 4)
	return w.dev.ReadU32(off)
}

// WriteU16 stores a little-endian 2-byte value.
func (w Window) WriteU16(off uint64, v uint16) error {
	if err := w.fenced(); err != nil {
		return err
	}
	w.faultStore(off, 2)
	if err := w.dev.WriteU16(off, v); err != nil {
		return err
	}
	if w.rec != nil {
		w.rec.Write(2)
	}
	return nil
}

// ReadU16 loads a little-endian 2-byte value.
func (w Window) ReadU16(off uint64) (uint16, error) {
	w.faultLoad(off, 2)
	return w.dev.ReadU16(off)
}

// WriteU8 stores one byte.
func (w Window) WriteU8(off uint64, v uint8) error {
	if err := w.fenced(); err != nil {
		return err
	}
	w.faultStore(off, 1)
	if err := w.dev.WriteU8(off, v); err != nil {
		return err
	}
	if w.rec != nil {
		w.rec.Write(1)
	}
	return nil
}

// ReadU8 loads one byte.
func (w Window) ReadU8(off uint64) (uint8, error) {
	w.faultLoad(off, 1)
	return w.dev.ReadU8(off)
}

// Zero clears [off, off+n).
func (w Window) Zero(off, n uint64) error {
	if err := w.fenced(); err != nil {
		return err
	}
	w.faultStore(off, n)
	if err := w.dev.Zero(off, n); err != nil {
		return err
	}
	if w.rec != nil {
		w.rec.Write(n)
	}
	return nil
}

// Flush persists the covering cachelines (no protection check: clwb on a
// read-only page is legal).
func (w Window) Flush(off, n uint64) error {
	if err := w.fenced(); err != nil {
		return err
	}
	if err := w.dev.Flush(off, n); err != nil {
		return err
	}
	if w.rec != nil {
		w.rec.Flush(off, n)
	}
	return nil
}

// PunchHole releases the backing of [off, off+n) (nvm.Device.PunchHole).
// Like Flush it is not a PKRU-checked store, but it is fenced.
func (w Window) PunchHole(off, n uint64) error {
	if err := w.fenced(); err != nil {
		return err
	}
	return w.dev.PunchHole(off, n)
}

// Fence orders prior flushes.
func (w Window) Fence() {
	w.dev.Fence()
	if w.rec != nil {
		w.rec.Fence()
	}
}

// Persist writes, flushes and fences.
func (w Window) Persist(off uint64, b []byte) error {
	if err := w.fenced(); err != nil {
		return err
	}
	w.faultStore(off, uint64(len(b)))
	if err := w.dev.Persist(off, b); err != nil {
		return err
	}
	if w.rec != nil {
		w.rec.Write(uint64(len(b)))
		w.rec.Flush(off, uint64(len(b)))
		w.rec.Fence()
	}
	return nil
}

// PersistU64 atomically stores and persists an 8-byte value.
func (w Window) PersistU64(off uint64, v uint64) error {
	if err := w.fenced(); err != nil {
		return err
	}
	w.faultStore(off, 8)
	if err := w.dev.PersistU64(off, v); err != nil {
		return err
	}
	if w.rec != nil {
		w.rec.Write(8)
		w.rec.Flush(off, 8)
		w.rec.Fence()
	}
	return nil
}
