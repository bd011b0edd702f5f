package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/nvm"
)

const (
	restartObjects  = 200_000
	restartMinSize  = 8
	restartMaxSize  = 256
	restartOpenTx   = 4 // micro-log lanes left with an open TxAlloc sequence
	restartOpenEach = 8 // uncommitted TxAllocs in each of them
)

// restartOptions is the heap the restart workload crashes and reloads: the
// defaults, with four sub-heaps of 50k objects each and block tables large
// enough to index them (the default 4 MiB metadata region fills at about
// that count).
func restartOptions() core.Options { return core.Options{Subheaps: 4, SubheapMetaSize: 8 << 20} }

// restartLoadOptions is what each timed core.Load runs with: the defaults
// but serial recovery. The default fans recovery out over GOMAXPROCS
// workers; on a machine of few shared cores a Load then waits for whichever
// worker the host scheduled last, and between runs of the same code its
// median moved by 12-17 % where the serial Load's moved by 5 %.
func restartLoadOptions() core.Options { return core.Options{RecoveryParallelism: 1} }

// restartImage is a crashed heap image in memory plus what the oracle
// knows about it.
type restartImage struct {
	img      []byte
	acked    []core.NVMPtr
	sizes    []uint64
	open     []core.NVMPtr
	live     uint64
	capacity uint64
}

// setupRestart fills every sub-heap single-threaded with objects of mixed
// size classes, leaves uncommitted TxAlloc sequences open in several
// lanes, crashes the device dropping every unflushed line and saves the
// crashed image.
func setupRestart(seed int64) (*restartImage, error) {
	opts := restartOptions()
	opts.CrashTracking = true
	h, err := core.Create(opts)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	rng := rand.New(rand.NewSource(seed))
	size := func() uint64 { return restartMinSize + uint64(rng.Int63n(restartMaxSize-restartMinSize+1)) }
	im := &restartImage{}
	for s := 0; s < h.Subheaps(); s++ {
		th, err := h.ThreadOn(s)
		if err != nil {
			return nil, err
		}
		for i := 0; i < restartObjects/h.Subheaps(); i++ {
			sz := size()
			p, err := th.Alloc(sz)
			if err != nil {
				th.Close()
				return nil, fmt.Errorf("fill sub-heap %d: %w", s, err)
			}
			im.acked = append(im.acked, p)
			im.sizes = append(im.sizes, sz)
			im.live += sz
		}
		th.Close()
	}
	// Threads holding open transactions stay open: the crash ends them.
	for l := 0; l < restartOpenTx; l++ {
		th, err := h.ThreadOn(l % h.Subheaps())
		if err != nil {
			return nil, err
		}
		for j := 0; j < restartOpenEach; j++ {
			p, err := th.TxAlloc(size(), false)
			if err != nil {
				return nil, fmt.Errorf("open tx: %w", err)
			}
			im.open = append(im.open, p)
		}
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := h.Device().SaveTo(&buf); err != nil {
		return nil, err
	}
	im.img = buf.Bytes()
	im.capacity = h.Device().Capacity()
	return im, nil
}

// device rebuilds a device from the crashed image.
func (im *restartImage) device(stats bool) (*nvm.Device, error) {
	return nvm.LoadFrom(bytes.NewReader(im.img), nvm.Options{Stats: stats})
}

// verify checks a loaded heap: exactly the open transactional blocks were
// rolled back, every acknowledged allocation is still allocated, and the
// audit is clean. Full is the expensive per-object part.
func (im *restartImage) verify(h *core.Heap, r *report, full bool) error {
	r.attempted++
	if st := h.Stats(); st.RecoveredBlocks != uint64(len(im.open)) {
		r.problem("Load rolled back %d blocks, want %d", st.RecoveredBlocks, len(im.open))
	}
	if !full {
		return nil
	}
	th, err := h.Thread()
	if err != nil {
		return err
	}
	defer th.Close()
	for i, p := range im.acked {
		r.attempted++
		if got, err := th.BlockSize(p); err != nil || got < im.sizes[i] {
			r.problem("acknowledged block %v: size %d (%v), want >= %d", p, got, err, im.sizes[i])
		}
	}
	for _, p := range im.open {
		r.attempted++
		if got, err := th.BlockSize(p); err == nil {
			r.problem("open tx block %v still allocated (%d B) after Load", p, got)
		}
	}
	r.checkHeap(h)
	return nil
}

type loadPhase struct {
	loads    *latHist
	total    time.Duration
	tracer   *tracer
	counters counters // summed over the loaded heaps
	last     *core.Heap
}

func (ph loadPhase) opsPerS() float64 { return float64(ph.loads.n) / ph.total.Seconds() }

// loadLoop rebuilds a device and times core.Load on it until the deadline.
// The first and last loads are verified in full, every load by its
// rollback count. spans records each Load as a span; telemetry loads with
// the traced options onto a device with counters on. The last loaded heap
// is left open.
func (im *restartImage) loadLoop(dur time.Duration, spans, telemetry bool, r *report) (loadPhase, error) {
	ph := loadPhase{loads: newLatHist()}
	if spans {
		ph.tracer = newTracer(time.Now(), 1, traceSpans)
	}
	deadline := time.Now().Add(dur)
	for i := 0; ; i++ {
		dev, err := im.device(telemetry)
		if err != nil {
			return ph, err
		}
		opts := restartLoadOptions()
		if telemetry {
			opts = tracedOptions(opts)
		}
		// Collect the previous sample's device first, so no Load shares
		// the CPUs with a collection it did not cause.
		runtime.GC()
		ph.tracer.startRequest()
		s := ph.tracer.begin(spanLoad)
		t0 := time.Now()
		h, err := core.Load(dev, opts)
		d := time.Since(t0)
		ph.tracer.end(s)
		ph.tracer.endRequest()
		if err != nil {
			return ph, fmt.Errorf("load: %w", err)
		}
		ph.loads.record(d.Nanoseconds())
		ph.total += d
		if telemetry {
			ph.counters = ph.counters.add(readCounters(h))
		}
		done := time.Now().After(deadline)
		if err := im.verify(h, r, i == 0 || done); err != nil {
			h.Close()
			return ph, err
		}
		if done {
			ph.last = h
			return ph, nil
		}
		h.Close()
	}
}

func runRestart(cfg runConfig, r *report) error {
	if cfg.trace {
		return runRestartTraced(cfg, r)
	}
	im, setupS, err := timeSetups(3, func() (*restartImage, error) { return setupRestart(cfg.seed) },
		func(*restartImage) {})
	if err != nil {
		return err
	}
	ph, err := im.loadLoop(cfg.measure(), false, false, r)
	if err != nil {
		return err
	}
	defer ph.last.Close()
	n := ph.loads.n
	r.named("load_p50_ms", ph.loads.quantile(0.50)/1e6, "ms", n, "per core.Load")
	r.named("load_p90_ms", ph.loads.quantile(0.90)/1e6, "ms", n, "per core.Load")
	resident := ph.last.Device().ResidentBytes()
	r.set("setup_s", setupS, 3, "median set-up: fill, open tx, crash, save image")
	// A busy minute on a shared host slows a tenth or more of the Loads
	// in it: between runs of the same code the Load p90 moved by 22 % and
	// the mean by 16 %, the p80 and the median by 5-6 %. So the tail is the
	// p80 and the rate is taken at the median Load time.
	r.set("ops_per_s", 1e9/ph.loads.quantile(0.50), n, "core.Load calls per second at the median Load time")
	r.set("p50_us", ph.loads.quantile(0.50)/1e3, n, "per core.Load")
	r.set("tail_us", ph.loads.quantile(0.80)/1e3, n, "p80 per core.Load")
	r.set("space_amp", float64(resident)/float64(im.live), im.live,
		fmt.Sprintf("%d resident B / %d live user B after Load", resident, im.live))
	return nil
}

// runRestartTraced mirrors the concurrent workloads' traced run: untraced
// loads, loads recorded as spans, then loads with telemetry and device
// counters on.
func runRestartTraced(cfg runConfig, r *report) error {
	im, err := setupRestart(cfg.seed)
	if err != nil {
		return err
	}
	var phs [3]loadPhase
	for i := range phs {
		if phs[i], err = im.loadLoop(cfg.tracedPhase(), i > 0, i == 2, r); err != nil {
			return err
		}
		if i < 2 {
			phs[i].last.Close()
		}
	}
	base, spans, full := phs[0], phs[1], phs[2]
	defer full.last.Close()
	levels, records, err := tableShape(full.last)
	if err != nil {
		return err
	}
	pr, err := runProbes(im.capacity, restartOptions().SubheapMetaSize, records)
	if err != nil {
		return err
	}
	r.layerMetrics(traced{
		ops:             full.loads.n,
		requests:        full.loads.n,
		spans:           summarize([]*tracer{spans.tracer}),
		delta:           full.counters,
		levels:          levels,
		residentBytes:   full.last.Device().ResidentBytes(),
		untracedOpsPerS: base.opsPerS(),
		tracedOpsPerS:   full.opsPerS(),
		probes:          pr,
	})
	return cfg.saveSpans([]*tracer{spans.tracer})
}
