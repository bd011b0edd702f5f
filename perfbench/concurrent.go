package main

import (
	"fmt"
	"time"

	"poseidon/internal/alloc"
	"poseidon/internal/core"
)

// phase is one timed closed-loop run of every client. a and b hold each
// client's latencies of the workload's two call kinds; failed counts
// failures of the untimed warm-up calls too.
type phase struct {
	elapsed time.Duration
	a, b    []*latHist
	warmOps uint64
	failed  uint64
	errs    []string
	handles []*tracedHandle
	tracers []*tracer
}

func newPhase(clients int) phase {
	ph := phase{a: make([]*latHist, clients), b: make([]*latHist, clients)}
	for w := 0; w < clients; w++ {
		ph.a[w], ph.b[w] = newLatHist(), newLatHist()
	}
	return ph
}

// decorate wraps client w's handle for tracing one request in rate.
func (ph *phase) decorate(w int, h alloc.Handle, heapID uint64, rate int) (alloc.Handle, *tracer) {
	tr := newTracer(time.Now(), rate, traceSpans)
	th := &tracedHandle{inner: h, tr: tr, heapID: heapID, shard: w}
	ph.handles = append(ph.handles, th)
	ph.tracers = append(ph.tracers, tr)
	return th, tr
}

// merged returns kind i's latencies over every client.
func (ph phase) merged(i int) *latHist {
	m := newLatHist()
	for w := range ph.a {
		if i == 0 {
			m.merge(ph.a[w])
		} else {
			m.merge(ph.b[w])
		}
	}
	return m
}

func (ph phase) count(i int) uint64 { return ph.merged(i).n }

func (ph phase) ops() uint64 { return ph.count(0) + ph.count(1) }

func (ph phase) opsPerS() float64 { return float64(ph.ops()) / ph.elapsed.Seconds() }

// account adds the phase's calls, warm-up included, and failures to the
// report.
func (ph phase) account(r *report) {
	r.attempted += ph.warmOps + ph.ops()
	r.failed += ph.failed
	r.problems = append(r.problems, ph.errs...)
}

// concurrentEnv is a set-up workload the clients run against.
type concurrentEnv interface {
	core() *core.Heap
	// runPhase warms the heap up for warm, calls before, then times every
	// client for dur. With traceRate > 0 each client's handle is decorated
	// and one request in traceRate is traced.
	runPhase(warm, dur time.Duration, traceRate int, before func()) (phase, error)
	// requests counts the phase's client requests, the unit per-request
	// sums are taken in.
	requests(ph phase) uint64
	// verify runs the workload's end-of-run oracle and returns the live
	// user bytes.
	verify(r *report) (uint64, error)
}

// concurrentWorkload is a closed-loop workload of several clients on one
// heap: ycsb-a or larson.
type concurrentWorkload struct {
	opts      core.Options
	setup     func(core.Options, runConfig) (concurrentEnv, error)
	kinds     [2]string // names of the two timed call kinds
	tail      float64   // the tail quantile tail_us reports
	setups    int       // set-ups per untraced run; setup_s is their median
	opNote    string
	setupNote string
}

func (cw concurrentWorkload) run(cfg runConfig, r *report) error {
	if cfg.trace {
		return cw.runTraced(cfg, r)
	}
	e, setupS, err := timeSetups(cw.setups, func() (concurrentEnv, error) { return cw.setup(cw.opts, cfg) },
		func(e concurrentEnv) { e.core().Close() })
	if err != nil {
		return err
	}
	defer e.core().Close()
	ph, err := e.runPhase(cfg.warm(), cfg.measure(), 0, nil)
	if err != nil {
		return err
	}
	ph.account(r)
	all := newLatHist()
	ops := ph.ops()
	r.named("ops_per_s", ph.opsPerS(), "ops/s", ops, fmt.Sprintf("%d clients, %.2f s", cfg.clients, ph.elapsed.Seconds()))
	// The two call kinds have separate latency modes, and the median of
	// their union sits in the gap between them, where a small shift of
	// either moves it far; p50_us is the mean of the two medians instead.
	var p50 float64
	for i, k := range cw.kinds {
		h := ph.merged(i)
		all.merge(h)
		p50 += h.quantile(0.50) / 2
		r.named(k+"_p50_us", h.quantile(0.50)/1e3, "us", h.n, "")
		r.named(k+"_p99_us", h.quantile(0.99)/1e3, "us", h.n, "")
	}
	live, err := e.verify(r)
	if err != nil {
		return err
	}
	resident := e.core().Device().ResidentBytes()
	r.set("setup_s", setupS, uint64(cw.setups), "median set-up: "+cw.setupNote)
	r.set("ops_per_s", ph.opsPerS(), ops, cw.kinds[0]+"s + "+cw.kinds[1]+"s")
	r.set("p50_us", p50/1e3, ops, fmt.Sprintf("mean of the %s and %s medians", cw.kinds[0], cw.kinds[1]))
	r.set("tail_us", all.quantile(cw.tail)/1e3, ops, fmt.Sprintf("p%g %s", cw.tail*100, cw.opNote))
	r.set("space_amp", float64(resident)/float64(live), live, fmt.Sprintf("%d resident B / %d live user B", resident, live))
	r.checkHeap(e.core())
	return nil
}

// runTraced runs three phases. On a heap with the timed run's options: an
// untraced phase, the baseline, then a phase with spans on, which the
// per-layer times come from. On a heap with telemetry and a never-firing
// watchdog: a phase with spans on, which the per-op counts, the lock
// histograms and the attribution classes come from; its throughput against
// the baseline is the tracing overhead.
func (cw concurrentWorkload) runTraced(cfg runConfig, r *report) error {
	e, err := cw.setup(cw.opts, cfg)
	if err != nil {
		return err
	}
	base, err := e.runPhase(cfg.warm(), cfg.tracedPhase(), 0, nil)
	if err != nil {
		e.core().Close()
		return err
	}
	base.account(r)
	spans, err := e.runPhase(0, cfg.tracedPhase(), traceRate, nil)
	if err != nil {
		e.core().Close()
		return err
	}
	spans.account(r)
	_, err = e.verify(r)
	r.checkHeap(e.core())
	e.core().Close()
	if err != nil {
		return err
	}

	e, err = cw.setup(tracedOptions(cw.opts), cfg)
	if err != nil {
		return err
	}
	defer e.core().Close()
	var before counters
	full, err := e.runPhase(cfg.warm(), cfg.tracedPhase(), traceRate,
		func() { before = readCounters(e.core()) })
	if err != nil {
		return err
	}
	delta := readCounters(e.core()).sub(before)
	full.account(r)
	if _, err := e.verify(r); err != nil {
		return err
	}
	r.checkHeap(e.core())

	levels, records, err := tableShape(e.core())
	if err != nil {
		return err
	}
	pr, err := runProbes(e.core().Device().Capacity(), cw.opts.SubheapMetaSize, records)
	if err != nil {
		return err
	}
	t := traced{
		ops:             full.ops(),
		requests:        e.requests(full),
		spans:           summarize(spans.tracers),
		delta:           delta,
		levels:          levels,
		residentBytes:   e.core().Device().ResidentBytes(),
		untracedOpsPerS: base.opsPerS(),
		tracedOpsPerS:   full.opsPerS(),
		probes:          pr,
	}
	for _, h := range spans.handles {
		t.frees += h.frees
		t.crossFree += h.crossFrees
	}
	r.layerMetrics(t)
	return cfg.saveSpans(spans.tracers)
}
