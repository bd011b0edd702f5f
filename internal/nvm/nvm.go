// Package nvm models a byte-addressable non-volatile main-memory (NVMM)
// device, the substrate the Poseidon allocator manages.
//
// The model reproduces the persistence semantics that matter for crash
// consistency on real hardware (Intel Optane DCPMM behind a DAX file):
//
//   - Stores land in a volatile cache first. A store becomes persistent only
//     after an explicit Flush of its cacheline (clwb) ordered by a Fence
//     (sfence) — or, adversarially, at any moment the "CPU" evicts the dirty
//     line on its own.
//   - Crash simulates a power failure: the device contents revert to the
//     persistent image, with an eviction policy deciding which dirty (written
//     but unflushed) cachelines happened to reach the media.
//
// The device is sparse: backing memory is materialised in fixed-size chunks
// on first write, so multi-gigabyte heaps cost only what they touch, like
// holes in a DAX file. PunchHole releases chunks back (fallocate
// FALLOC_FL_PUNCH_HOLE).
//
// Crash tracking (the shadow persistent image and dirty-line bitmaps) is
// optional; benchmarks run with it disabled and pay only a bounds check and
// chunk lookup per access.
package nvm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// CachelineSize is the persistence granularity (clwb granularity).
	CachelineSize = 64
	// PageSize is the protection granularity used by the MPK model.
	PageSize = 4096

	chunkShift = 22 // 4 MiB chunks
	// ChunkSize is the sparse-backing materialisation granularity.
	ChunkSize = 1 << chunkShift
	chunkMask = ChunkSize - 1

	linesPerChunk     = ChunkSize / CachelineSize
	dirtyWordsPerChnk = linesPerChunk / 64
)

// Common device errors.
var (
	ErrOutOfRange       = errors.New("nvm: access outside device capacity")
	ErrTrackingDisabled = errors.New("nvm: crash tracking is disabled on this device")
)

// Options configures a Device.
type Options struct {
	// Capacity is the device size in bytes. It is rounded up to a whole
	// number of chunks.
	Capacity uint64
	// CrashTracking enables the shadow persistent image and dirty-line
	// bookkeeping required by Crash. It roughly doubles memory use for
	// touched chunks and adds bookkeeping to every store.
	CrashTracking bool
	// Stats enables operation counters (writes, flushes, fences). Disabled
	// by default because the atomic increments limit multi-core scalability.
	Stats bool
}

// chunk is one materialised slab of device memory.
type chunk struct {
	data []byte
	// The fields below exist only when crash tracking is enabled.
	shadow []byte   // last persisted contents
	dirty  []uint64 // bitmap: cacheline written since last flush
}

// Device is a simulated NVMM device.
//
// Concurrent access to disjoint byte ranges is safe. Concurrent access to
// overlapping ranges requires external synchronisation, exactly as on real
// memory.
type Device struct {
	capacity uint64
	tracking bool
	stats    *Stats
	failpointState
	transient atomic.Pointer[transientState]

	chunkInit sync.Mutex // serialises chunk materialisation only
	chunks    []atomic.Pointer[chunk]

	resident atomic.Int64 // bytes of materialised backing memory

	// tap is the optional fence/flush latency outlier tap (tap.go); nil
	// costs one atomic pointer load per Flush/Fence.
	tap atomic.Pointer[LatencyTap]

	// lease is the current attach generation (lease.go); gens counts the
	// generations handed out.
	lease atomic.Pointer[Lease]
	gens  atomic.Uint64
}

// NewDevice creates a device of the configured capacity.
func NewDevice(opts Options) (*Device, error) {
	if opts.Capacity == 0 {
		return nil, errors.New("nvm: capacity must be non-zero")
	}
	nchunks := (opts.Capacity + chunkMask) >> chunkShift
	d := &Device{
		capacity: nchunks << chunkShift,
		tracking: opts.CrashTracking,
		chunks:   make([]atomic.Pointer[chunk], nchunks),
	}
	if opts.Stats {
		d.stats = &Stats{}
	}
	return d, nil
}

// Capacity returns the usable size of the device in bytes.
func (d *Device) Capacity() uint64 { return d.capacity }

// Tracking reports whether crash tracking is enabled.
func (d *Device) Tracking() bool { return d.tracking }

// ResidentBytes returns the bytes of backing memory currently materialised
// (excluding shadow copies).
func (d *Device) ResidentBytes() int64 { return d.resident.Load() }

func (d *Device) checkRange(off, n uint64) error {
	if off >= d.capacity || n > d.capacity-off {
		return fmt.Errorf("%w: off=%d len=%d cap=%d", ErrOutOfRange, off, n, d.capacity)
	}
	return nil
}

// getChunk returns the chunk containing off, or nil if it has never been
// written (reads from such a chunk see zeroes).
func (d *Device) getChunk(off uint64) *chunk {
	return d.chunks[off>>chunkShift].Load()
}

// materialise returns the chunk containing off, creating it if necessary.
func (d *Device) materialise(off uint64) *chunk {
	idx := off >> chunkShift
	if c := d.chunks[idx].Load(); c != nil {
		return c
	}
	d.chunkInit.Lock()
	defer d.chunkInit.Unlock()
	if c := d.chunks[idx].Load(); c != nil {
		return c
	}
	c := &chunk{data: make([]byte, ChunkSize)}
	size := int64(ChunkSize)
	if d.tracking {
		c.shadow = make([]byte, ChunkSize)
		c.dirty = make([]uint64, dirtyWordsPerChnk)
		size *= 2
	}
	d.resident.Add(size)
	d.chunks[idx].Store(c)
	return c
}

// markDirty records that the cachelines covering [off, off+n) were written.
func (c *chunk) markDirty(off, n uint64) {
	first := (off & chunkMask) / CachelineSize
	last := ((off&chunkMask + n - 1) / CachelineSize)
	for line := first; line <= last; line++ {
		atomic.OrUint64(&c.dirty[line/64], 1<<(line%64))
	}
}

// Write copies b into the device at off. The write is volatile until the
// covering cachelines are flushed (or evicted at crash time).
func (d *Device) Write(off uint64, b []byte) error {
	if err := d.checkRange(off, uint64(len(b))); err != nil {
		return err
	}
	if d.failing() {
		return ErrDeviceFailed
	}
	if err := d.faultWrite(off, uint64(len(b))); err != nil {
		return err
	}
	if d.stats != nil {
		d.stats.Writes.Add(1)
		d.stats.BytesWritten.Add(uint64(len(b)))
	}
	for len(b) > 0 {
		c := d.materialise(off)
		in := off & chunkMask
		n := uint64(len(b))
		if n > ChunkSize-in {
			n = ChunkSize - in
		}
		copy(c.data[in:in+n], b[:n])
		if d.tracking {
			c.markDirty(off, n)
		}
		off += n
		b = b[n:]
	}
	return nil
}

// Read copies len(b) bytes at off into b. Unwritten regions read as zero.
func (d *Device) Read(off uint64, b []byte) error {
	if err := d.checkRange(off, uint64(len(b))); err != nil {
		return err
	}
	if err := d.faultRead(off, uint64(len(b))); err != nil {
		return err
	}
	for len(b) > 0 {
		in := off & chunkMask
		n := uint64(len(b))
		if n > ChunkSize-in {
			n = ChunkSize - in
		}
		if c := d.getChunk(off); c != nil {
			copy(b[:n], c.data[in:in+n])
		} else {
			clear(b[:n])
		}
		off += n
		b = b[n:]
	}
	return nil
}

// WriteU64 stores a little-endian 8-byte value. The offset need not be
// aligned, but aligned stores never straddle a cacheline, matching the
// 8-byte atomic-store guarantee crash-consistent code relies on.
func (d *Device) WriteU64(off uint64, v uint64) error {
	if err := d.checkRange(off, 8); err != nil {
		return err
	}
	if off&chunkMask <= ChunkSize-8 {
		if d.failing() {
			return ErrDeviceFailed
		}
		if err := d.faultWrite(off, 8); err != nil {
			return err
		}
		if d.stats != nil {
			d.stats.Writes.Add(1)
			d.stats.BytesWritten.Add(8)
		}
		c := d.materialise(off)
		putU64(c.data[off&chunkMask:], v)
		if d.tracking {
			c.markDirty(off, 8)
		}
		return nil
	}
	var buf [8]byte
	putU64(buf[:], v)
	return d.Write(off, buf[:])
}

// ReadU64 loads a little-endian 8-byte value.
func (d *Device) ReadU64(off uint64) (uint64, error) {
	if err := d.checkRange(off, 8); err != nil {
		return 0, err
	}
	if off&chunkMask <= ChunkSize-8 {
		if err := d.faultRead(off, 8); err != nil {
			return 0, err
		}
		c := d.getChunk(off)
		if c == nil {
			return 0, nil
		}
		return getU64(c.data[off&chunkMask:]), nil
	}
	var buf [8]byte
	if err := d.Read(off, buf[:]); err != nil {
		return 0, err
	}
	return getU64(buf[:]), nil
}

// WriteU32 stores a little-endian 4-byte value.
func (d *Device) WriteU32(off uint64, v uint32) error {
	var buf [4]byte
	putU32(buf[:], v)
	return d.Write(off, buf[:])
}

// ReadU32 loads a little-endian 4-byte value.
func (d *Device) ReadU32(off uint64) (uint32, error) {
	var buf [4]byte
	if err := d.Read(off, buf[:]); err != nil {
		return 0, err
	}
	return getU32(buf[:]), nil
}

// WriteU16 stores a little-endian 2-byte value.
func (d *Device) WriteU16(off uint64, v uint16) error {
	var buf [2]byte
	buf[0] = byte(v)
	buf[1] = byte(v >> 8)
	return d.Write(off, buf[:])
}

// ReadU16 loads a little-endian 2-byte value.
func (d *Device) ReadU16(off uint64) (uint16, error) {
	var buf [2]byte
	if err := d.Read(off, buf[:]); err != nil {
		return 0, err
	}
	return uint16(buf[0]) | uint16(buf[1])<<8, nil
}

// WriteU8 stores one byte.
func (d *Device) WriteU8(off uint64, v uint8) error {
	return d.Write(off, []byte{v})
}

// ReadU8 loads one byte.
func (d *Device) ReadU8(off uint64) (uint8, error) {
	var buf [1]byte
	if err := d.Read(off, buf[:]); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// Zero clears [off, off+n). It is a regular (volatile-until-flushed) write.
func (d *Device) Zero(off, n uint64) error {
	if err := d.checkRange(off, n); err != nil {
		return err
	}
	if d.failing() {
		return ErrDeviceFailed
	}
	if err := d.faultWrite(off, n); err != nil {
		return err
	}
	if d.stats != nil {
		d.stats.Writes.Add(1)
		d.stats.BytesWritten.Add(n)
	}
	for n > 0 {
		in := off & chunkMask
		step := n
		if step > ChunkSize-in {
			step = ChunkSize - in
		}
		// Zeroing a never-touched chunk is a no-op: it already reads as zero.
		if c := d.getChunk(off); c != nil {
			clear(c.data[in : in+step])
			if d.tracking {
				c.markDirty(off, step)
			}
		}
		off += step
		n -= step
	}
	return nil
}

// Flush makes the cachelines covering [off, off+n) persistent (clwb). It
// must still be ordered by a Fence for crash-consistency reasoning, but in
// this model the lines are durable as soon as Flush returns.
func (d *Device) Flush(off, n uint64) error {
	if tap := d.tap.Load(); tap != nil {
		start := time.Now()
		err := d.flush(off, n)
		tap.observe(tapFlush, time.Since(start))
		return err
	}
	return d.flush(off, n)
}

func (d *Device) flush(off, n uint64) error {
	if n == 0 {
		return nil
	}
	if err := d.checkRange(off, n); err != nil {
		return err
	}
	if d.failing() {
		return ErrDeviceFailed
	}
	if err := d.faultWrite(off, n); err != nil {
		return err
	}
	start := off &^ (CachelineSize - 1)
	end := (off + n + CachelineSize - 1) &^ (CachelineSize - 1)
	if d.stats != nil {
		d.stats.Flushes.Add((end - start) / CachelineSize)
	}
	if !d.tracking {
		return nil
	}
	for at := start; at < end; {
		c := d.getChunk(at)
		in := at & chunkMask
		step := end - at
		if step > ChunkSize-in {
			step = ChunkSize - in
		}
		if c != nil {
			copy(c.shadow[in:in+step], c.data[in:in+step])
			first := in / CachelineSize
			last := (in + step - 1) / CachelineSize
			for line := first; line <= last; line++ {
				atomic.AndUint64(&c.dirty[line/64], ^(uint64(1) << (line % 64)))
			}
		}
		at += step
	}
	return nil
}

// Fence orders previously issued flushes (sfence). In this model flushes are
// synchronous, so Fence only updates statistics; it exists so calling code
// documents its ordering points and so the counters reflect real barrier
// traffic.
func (d *Device) Fence() {
	if tap := d.tap.Load(); tap != nil {
		start := time.Now()
		if d.stats != nil {
			d.stats.Fences.Add(1)
		}
		tap.observe(tapFence, time.Since(start))
		return
	}
	if d.stats != nil {
		d.stats.Fences.Add(1)
	}
}

// Persist is the common write-and-make-durable idiom: Write, Flush, Fence.
func (d *Device) Persist(off uint64, b []byte) error {
	if err := d.Write(off, b); err != nil {
		return err
	}
	if err := d.Flush(off, uint64(len(b))); err != nil {
		return err
	}
	d.Fence()
	return nil
}

// PersistU64 atomically stores an 8-byte value and makes it durable. This is
// the primitive used for commit records (log counts, status words).
func (d *Device) PersistU64(off uint64, v uint64) error {
	if err := d.WriteU64(off, v); err != nil {
		return err
	}
	if err := d.Flush(off, 8); err != nil {
		return err
	}
	d.Fence()
	return nil
}

// PunchHole releases the backing memory of every chunk fully contained in
// [off, off+n) and zeroes the partial edges, mirroring fallocate
// FALLOC_FL_PUNCH_HOLE on a DAX file. Punched ranges read as zero and are
// re-materialised on the next write.
func (d *Device) PunchHole(off, n uint64) error {
	if err := d.checkRange(off, n); err != nil {
		return err
	}
	end := off + n
	at := off
	// Zero the leading partial chunk.
	if at&chunkMask != 0 {
		step := ChunkSize - at&chunkMask
		if step > end-at {
			step = end - at
		}
		if err := d.zeroPersistent(at, step); err != nil {
			return err
		}
		at += step
	}
	// Drop whole chunks. The drop phase consumes exactly one failpoint
	// budget unit, before any chunk is released, so crash sweeps see a
	// deterministic per-op cost and never observe a half-punched range.
	if at+ChunkSize <= end {
		if d.failing() {
			return ErrDeviceFailed
		}
	}
	for at+ChunkSize <= end {
		idx := at >> chunkShift
		if c := d.chunks[idx].Swap(nil); c != nil {
			size := int64(ChunkSize)
			if d.tracking {
				size *= 2
			}
			d.resident.Add(-size)
		}
		at += ChunkSize
	}
	// Zero the trailing partial chunk.
	if at < end {
		if err := d.zeroPersistent(at, end-at); err != nil {
			return err
		}
	}
	return nil
}

// zeroPersistent zeroes a range in both the working and persistent images,
// as a hole punch is immediately durable.
func (d *Device) zeroPersistent(off, n uint64) error {
	if err := d.Zero(off, n); err != nil {
		return err
	}
	return d.Flush(off, n)
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func getU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putU32(b []byte, v uint32) {
	_ = b[3]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
