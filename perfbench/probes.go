package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"poseidon/internal/memblock"
	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
	"poseidon/internal/plog"
	"poseidon/internal/txn"
)

// probe is the isolated cost of one public function: nanoseconds per call,
// averaged over calls.
type probe struct {
	ns    float64
	calls int
}

// probes holds every layer probe of one run. Each runs on its own scratch
// device, sized like the workload's, through the same public functions the
// heap calls.
type probes struct {
	flushLine, fence, readU64, writeU64 probe // nvm.Device
	switchRights, windowRead            probe // mpk.Thread.SetRights, mpk.Window.ReadU64
	snapshot, seal, truncate            probe // plog.UndoLog
	commit                              probe // txn.Batch.Commit of one free-list pop
	lookup, insert                      probe // memblock.Manager at the workload's record count

	commitWords int // words the committed batch stages
	records     int // records in the probed block table
	levels      int // its active levels after populating
}

// Scratch geometry: one sub-heap laid out like core's, with 64 MiB of user
// data and a metadata region holding a 4 KiB header, a 256 KiB undo log
// and the block table.
const (
	probeUndoBase = 0
	probeUndoSize = 256 << 10
	probeMetaBase = 1 << 20
	probeUserSize = 64 << 20
	probeLine     = 64
	probeSpan     = 1024 // distinct cachelines the nvm and mpk probes cycle over
)

// timeLoop runs fn(i) for i in [0, n) and returns the mean ns per call.
// Loop timing keeps the clock's own cost out of calls that take only a
// few nanoseconds.
func timeLoop(n int, fn func(i int)) probe {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return probe{ns: float64(time.Since(start).Nanoseconds()) / float64(n), calls: n}
}

// clockCost is the mean cost of one time.Now pair, subtracted from calls
// that must be timed one by one.
func clockCost() float64 {
	const n = 100_000
	start := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		sink += time.Since(t)
	}
	_ = sink
	return float64(time.Since(start).Nanoseconds()) / n
}

// runProbes measures every layer probe. capacity sizes the scratch device
// like the workload's heap and metaSize its sub-heaps' metadata regions (0:
// core's default); records is the workload's largest per-sub-heap block
// table population, so lookups walk as many levels as they do there.
func runProbes(capacity, metaSize uint64, records int) (probes, error) {
	var p probes
	if metaSize == 0 {
		metaSize = probeUserSize / 16
	}
	userBase := probeMetaBase + metaSize
	capacity = max(capacity, userBase+probeUserSize)

	// nvm: one-line flushes, fences, and word loads and stores.
	dev, err := nvm.NewDevice(nvm.Options{Capacity: capacity})
	if err != nil {
		return p, err
	}
	const nvmCalls = 400_000
	var perr error
	keep := func(err error) {
		if err != nil && perr == nil {
			perr = err
		}
	}
	off := func(i int) uint64 { return userBase + uint64(i%probeSpan)*probeLine }
	p.writeU64 = timeLoop(nvmCalls, func(i int) { keep(dev.WriteU64(off(i), uint64(i))) })
	p.readU64 = timeLoop(nvmCalls, func(i int) { _, err := dev.ReadU64(off(i)); keep(err) })
	p.flushLine = timeLoop(nvmCalls, func(i int) { keep(dev.Flush(off(i), probeLine)) })
	p.fence = timeLoop(nvmCalls, func(int) { dev.Fence() })

	// mpk: a permission switch and a protection-checked load.
	unit := mpk.NewUnit(dev.Capacity())
	if err := unit.AssignRange(probeMetaBase, metaSize, 1); err != nil {
		return p, err
	}
	th := unit.NewThread(mpk.RightsRW)
	p.switchRights = timeLoop(nvmCalls, func(i int) {
		th.SetRights(1, mpk.Rights(i&1)*mpk.WriteDisable)
	})
	th.SetRights(1, mpk.RightsRW)
	win := mpk.NewWindow(dev, th)
	p.windowRead = timeLoop(nvmCalls, func(i int) { _, err := win.ReadU64(off(i)); keep(err) })
	if perr != nil {
		return p, fmt.Errorf("nvm/mpk probe: %w", perr)
	}

	clock := clockCost()
	timed := func(fn func() error) (float64, error) {
		t := time.Now()
		err := fn()
		return float64(time.Since(t).Nanoseconds()) - clock, err
	}

	// plog: snapshot 64 B, seal, truncate. Each is timed by difference of
	// loops that add one call kind at a time, so no clock read sits inside
	// a call that costs a few nanoseconds: snapshots alone (truncating
	// every 256th), then each snapshot sealed, then each also truncated.
	log, err := plog.OpenUndoLog(win, probeUndoBase, probeUndoSize)
	if err != nil {
		return p, err
	}
	const logCalls = 1 << 16
	logLoop := func(seal, truncEach bool) probe {
		return timeLoop(logCalls, func(i int) {
			keep(log.Snapshot(off(i), probeLine))
			if seal {
				keep(log.Seal())
			}
			if truncEach || i%256 == 255 {
				keep(log.Truncate())
			}
		})
	}
	snap := logLoop(false, false)
	sealed := logLoop(true, false)
	truncated := logLoop(true, true)
	if perr != nil {
		return p, fmt.Errorf("plog probe: %w", perr)
	}
	p.snapshot = snap
	p.seal = probe{ns: sealed.ns - snap.ns, calls: logCalls}
	p.truncate = probe{ns: (truncated.ns - sealed.ns) * 256 / 255, calls: logCalls * 255 / 256}

	// memblock: a table holding the workload's record count, then lookups
	// of present blocks and inserts of absent ones.
	g, err := memblock.ComputeGeometry(probeMetaBase, metaSize-4<<10-probeUndoSize, userBase, probeUserSize)
	if err != nil {
		return p, err
	}
	m := memblock.NewManager(win, g)
	if err := m.Format(); err != nil {
		return p, err
	}
	b := txn.NewBatch(win, log)
	if records < 1 {
		records = 1
	}
	const freeRecords = 1024 // the free list the commit probe pops from
	blockOff := func(i int) uint64 { return userBase + uint64(i)*memblock.RecordSize }
	insert := func(i int, status uint64) (uint64, error) {
		slot, err := m.Insert(b, blockOff(i), memblock.RecordSize, status)
		for errors.Is(err, memblock.ErrNoSlot) {
			if err = m.ExtendLevel(b); err != nil {
				return 0, err
			}
			slot, err = m.Insert(b, blockOff(i), memblock.RecordSize, status)
		}
		return slot, err
	}
	for i := 0; i < records+freeRecords; i++ {
		if i < records {
			if _, err := insert(i, memblock.StatusAllocated); err != nil {
				return p, fmt.Errorf("memblock populate: %w", err)
			}
		} else {
			slot, err := insert(i, memblock.StatusFree)
			if err == nil {
				err = m.PushFreeTail(b, 0, slot)
			}
			if err != nil {
				return p, fmt.Errorf("memblock populate: %w", err)
			}
		}
		if b.Len() > 512 {
			if err := b.Commit(); err != nil {
				return p, err
			}
		}
	}
	if err := b.Commit(); err != nil {
		return p, err
	}
	p.records = records
	if p.levels, err = m.ActiveLevels(win); err != nil {
		return p, err
	}

	order := rand.New(rand.NewSource(1)).Perm(records)
	const tableCalls = 100_000
	p.lookup = timeLoop(tableCalls, func(i int) {
		_, err := m.Lookup(win, blockOff(order[i%records]))
		keep(err)
	})
	fresh := records + freeRecords
	var insertNS float64
	inserts := 0
	for i := 0; i < tableCalls; i++ {
		d, err := timed(func() error {
			_, err := m.Insert(b, blockOff(fresh+i%(1<<16)), memblock.RecordSize, memblock.StatusAllocated)
			return err
		})
		b.Abort()
		if errors.Is(err, memblock.ErrNoSlot) {
			continue // the window is full here; the heap would extend or defragment
		}
		keep(err)
		insertNS += d
		inserts++
	}
	if inserts > 0 {
		p.insert = probe{ns: insertNS / float64(inserts), calls: inserts}
	}
	if perr != nil {
		return p, fmt.Errorf("memblock probe: %w", perr)
	}

	// txn: commit the batch one allocation stages when it pops a block off
	// a free list — unlink and mark allocated — then push it back untimed.
	const commitCalls = 20_000
	var commitNS float64
	for i := 0; i < commitCalls; i++ {
		head, err := m.FreeHead(b, 0)
		if err == nil {
			err = m.RemoveFree(b, 0, head)
		}
		if err == nil {
			err = m.SetStatus(b, head, memblock.StatusAllocated)
		}
		if err != nil {
			return p, fmt.Errorf("txn probe staging: %w", err)
		}
		p.commitWords = b.Len()
		d, err := timed(b.Commit)
		if err != nil {
			return p, fmt.Errorf("txn commit probe: %w", err)
		}
		commitNS += d
		if err := m.PushFreeTail(b, 0, head); err != nil {
			return p, err
		}
		if err := b.Commit(); err != nil {
			return p, err
		}
	}
	p.commit = probe{ns: commitNS / commitCalls, calls: commitCalls}
	return p, nil
}

// median returns the median of xs (which it sorts); zero when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
