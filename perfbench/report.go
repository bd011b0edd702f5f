package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"poseidon/internal/core"
	"poseidon/internal/obs"
)

// metricDef is one metric of the result line, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
// Every workload reports all of them; what "an op" is depends on the
// workload (a request, an alloc or free call, a core.Load).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"tail_us", "us"},
	{"space_amp", "ratio"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order. A
// layer a workload does not use reports zero.
var perLayer = []metricDef{
	{"client.gen_ns", "ns"},
	{"fastfair.search_self_ns", "ns"},
	{"fastfair.update_self_ns", "ns"},
	{"fastfair.core_calls_per_search", "count"},
	{"core.read_ns", "ns"},
	{"core.write_ns", "ns"},
	{"core.persist_ns", "ns"},
	{"core.alloc_ns", "ns"},
	{"core.free_ns", "ns"},
	{"core.cross_free_frac", "frac"},
	{"core.lock_wait_ns", "ns"},
	{"core.lock_hold_ns", "ns"},
	{"core.recovery_frac", "frac"},
	{"core.recovered_blocks", "count"},
	{"core.recovered_noops", "count"},
	{"core.unattributed_frac", "frac"},
	{"txn.commit_ns", "ns"},
	{"plog.snapshot_ns", "ns"},
	{"plog.seal_ns", "ns"},
	{"plog.truncate_ns", "ns"},
	{"memblock.lookup_ns", "ns"},
	{"memblock.insert_ns", "ns"},
	{"memblock.active_levels", "count"},
	{"memblock.defrag_merges_per_op", "count"},
	{"mpk.switches_per_op", "count"},
	{"mpk.switch_ns", "ns"},
	{"mpk.window_read_ns", "ns"},
	{"nvm.flushes_per_op", "count"},
	{"nvm.fences_per_op", "count"},
	{"nvm.bytes_written_per_op", "B"},
	{"nvm.flushes_per_alloc", "count"},
	{"nvm.fences_per_alloc", "count"},
	{"nvm.flushes_per_free", "count"},
	{"nvm.fences_per_free", "count"},
	{"nvm.flush_line_ns", "ns"},
	{"nvm.fence_ns", "ns"},
	{"nvm.read_u64_ns", "ns"},
	{"nvm.write_u64_ns", "ns"},
	{"nvm.resident_mib", "MiB"},
	{"obs.trace_overhead_frac", "frac"},
	{"sum.client_frac", "frac"},
	{"sum.fastfair_frac", "frac"},
	{"sum.core_frac", "frac"},
	{"sum.core_probe_frac", "frac"},
}

// value is one measured number with the count it rests on.
type value struct {
	v    float64
	n    uint64 // samples or base count
	note string
}

// report collects one run's results. lines hold the workload's own metrics
// under the names people read (read_p99_us, load_p90_ms, ...); metrics
// holds what the result line carries.
type report struct {
	lines     []string
	metrics   map[string]value
	attempted uint64
	failed    uint64
	problems  []string
}

func newReport() *report { return &report{metrics: map[string]value{}} }

// named prints one workload metric for people; it is not on the result line.
func (r *report) named(name string, v float64, unit string, n uint64, note string) {
	r.lines = append(r.lines, fmt.Sprintf("%-32s %14.4f %-6s n=%d %s", name, v, unit, n, note))
}

func (r *report) set(name string, v float64, n uint64, note string) {
	r.metrics[name] = value{v: v, n: n, note: note}
}

// problem records a failed operation or correctness check.
func (r *report) problem(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// checkHeap runs the heap's own audit and counts it as one checked
// operation.
func (r *report) checkHeap(h *core.Heap) {
	r.attempted++
	rep, err := h.Check()
	switch {
	case err != nil:
		r.problem("Check: %v", err)
	case !rep.Healthy():
		r.problem("Check: %d problems, %d quarantined: %s", len(rep.Problems), rep.Quarantined,
			strings.Join(rep.Problems, "; "))
	}
}

// print writes the human-readable report, then the result line carrying
// defs. It reports whether every check passed.
func (r *report) print(w io.Writer, defs []metricDef) bool {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, d := range defs {
		v := r.metrics[d.name]
		fmt.Fprintf(w, "%-32s %14.4f %-6s n=%d %s\n", d.name, v.v, d.unit, v.n, v.note)
	}
	fmt.Fprintf(w, "%-32s %14.6f %-6s n=%d failed=%d\n", "fail_ratio",
		ratio(float64(r.failed), float64(r.attempted)), "frac", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]jv{}}
	for _, d := range defs {
		out.Metrics[d.name] = jv{r.metrics[d.name].v, d.unit}
	}
	b, _ := json.Marshal(out) // plain structs of numbers and strings always marshal
	fmt.Fprintln(w, string(b))
	return out.Correct
}

// counters is the slice of Heap.Metrics a traced phase is measured by.
type counters struct {
	switches, defrag        uint64
	flushes, fences, bytes  uint64
	lockWaitNS, lockWaitN   uint64
	lockHoldNS, lockHoldN   uint64
	recoveryNS, loadNS      uint64
	recoveredBlocks, noops  uint64
	allocOps, allocFlushes  uint64
	allocFences, freeOps    uint64
	freeFlushes, freeFences uint64
}

func readCounters(h *core.Heap) counters {
	s := h.Metrics()
	c := counters{
		switches:        s.Counters["permission_switches"],
		defrag:          s.Counters["defrag_merges"],
		recoveredBlocks: s.Counters["recovered_blocks"],
		noops:           s.Counters["recovered_noops"],
		flushes:         s.Device.Flushes,
		fences:          s.Device.Fences,
		bytes:           s.Device.BytesWritten,
	}
	for _, o := range s.Ops {
		switch o.Op {
		case obs.OpLockWait.String():
			c.lockWaitNS, c.lockWaitN = o.TotalNS, o.Count
		case obs.OpLockHold.String():
			c.lockHoldNS, c.lockHoldN = o.TotalNS, o.Count
		case obs.OpRecovery.String():
			c.recoveryNS = o.TotalNS
		case obs.OpLoad.String():
			c.loadNS = o.TotalNS
		}
	}
	for _, a := range s.Attribution {
		switch a.Class {
		case "alloc":
			c.allocOps, c.allocFlushes, c.allocFences = a.Ops, a.Flushes, a.Fences
		case "free":
			c.freeOps, c.freeFlushes, c.freeFences = a.Ops, a.Flushes, a.Fences
		}
	}
	return c
}

func (c counters) sub(b counters) counters {
	return counters{
		switches: c.switches - b.switches, defrag: c.defrag - b.defrag,
		flushes: c.flushes - b.flushes, fences: c.fences - b.fences, bytes: c.bytes - b.bytes,
		lockWaitNS: c.lockWaitNS - b.lockWaitNS, lockWaitN: c.lockWaitN - b.lockWaitN,
		lockHoldNS: c.lockHoldNS - b.lockHoldNS, lockHoldN: c.lockHoldN - b.lockHoldN,
		recoveryNS: c.recoveryNS - b.recoveryNS, loadNS: c.loadNS - b.loadNS,
		recoveredBlocks: c.recoveredBlocks - b.recoveredBlocks, noops: c.noops - b.noops,
		allocOps: c.allocOps - b.allocOps, allocFlushes: c.allocFlushes - b.allocFlushes,
		allocFences: c.allocFences - b.allocFences, freeOps: c.freeOps - b.freeOps,
		freeFlushes: c.freeFlushes - b.freeFlushes, freeFences: c.freeFences - b.freeFences,
	}
}

// add sums counters of separate heaps, such as one per Load.
func (c counters) add(b counters) counters {
	var zero counters
	return c.sub(zero.sub(b))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traced is everything a traced phase measured, turned into the per-layer
// metrics by layerMetrics.
type traced struct {
	ops              uint64 // requests, alloc+free calls, or Loads
	requests         uint64 // requests: ops, larson replacements, or Loads
	spans            spanSummary
	delta            counters
	frees, crossFree uint64
	levels           int
	residentBytes    int64
	untracedOpsPerS  float64
	tracedOpsPerS    float64
	probes           probes
}

func (r *report) layerMetrics(t traced) {
	ops := float64(t.ops)
	s := t.spans
	p := t.probes
	n := uint64(ops)
	r.set("client.gen_ns", s.mean(spanGen), uint64(s.count[spanGen]), "per sampled request")
	r.set("fastfair.search_self_ns", ratio(s.searchSelf, s.count[spanSearch]), uint64(s.count[spanSearch]), "search span minus its core spans")
	r.set("fastfair.update_self_ns", ratio(s.updateSelf, s.count[spanUpdate]), uint64(s.count[spanUpdate]), "update span minus its core spans")
	r.set("fastfair.core_calls_per_search", ratio(s.searchCore, s.count[spanSearch]), uint64(s.count[spanSearch]), "")
	r.set("core.read_ns", s.mean(spanRead), uint64(s.count[spanRead]), "Read and ReadU64 calls")
	r.set("core.write_ns", s.mean(spanWrite), uint64(s.count[spanWrite]), "Write and WriteU64 calls")
	r.set("core.persist_ns", s.mean(spanPersist), uint64(s.count[spanPersist]), "")
	r.set("core.alloc_ns", s.mean(spanAlloc), uint64(s.count[spanAlloc]), "")
	r.set("core.free_ns", s.mean(spanFree), uint64(s.count[spanFree]), "")
	r.set("core.cross_free_frac", ratio(float64(t.crossFree), float64(t.frees)), t.frees, "frees of blocks another sub-heap owns")
	d := t.delta
	r.set("core.lock_wait_ns", ratio(float64(d.lockWaitNS), float64(d.lockWaitN)), d.lockWaitN, "OpLockWait mean")
	r.set("core.lock_hold_ns", ratio(float64(d.lockHoldNS), float64(d.lockHoldN)), d.lockHoldN, "OpLockHold mean")
	r.set("core.recovery_frac", ratio(float64(d.recoveryNS), float64(d.loadNS)), n, "OpRecovery / OpLoad total")
	r.set("core.recovered_blocks", ratio(float64(d.recoveredBlocks), ops), n, "per op: per Load on restart")
	r.set("core.recovered_noops", ratio(float64(d.noops), ops), n, "per op: per Load on restart")

	r.set("txn.commit_ns", p.commit.ns, uint64(p.commit.calls), fmt.Sprintf("batch of %d words", p.commitWords))
	r.set("plog.snapshot_ns", p.snapshot.ns, uint64(p.snapshot.calls), "64 B entry")
	r.set("plog.seal_ns", p.seal.ns, uint64(p.seal.calls), "")
	r.set("plog.truncate_ns", p.truncate.ns, uint64(p.truncate.calls), "")
	r.set("memblock.lookup_ns", p.lookup.ns, uint64(p.lookup.calls), fmt.Sprintf("%d records, %d levels", p.records, p.levels))
	r.set("memblock.insert_ns", p.insert.ns, uint64(p.insert.calls), fmt.Sprintf("%d records, %d levels", p.records, p.levels))
	r.set("memblock.active_levels", float64(t.levels), 1, "deepest sub-heap at the end")
	r.set("memblock.defrag_merges_per_op", ratio(float64(d.defrag), ops), n, "")
	r.set("mpk.switches_per_op", ratio(float64(d.switches), ops), n, "HeapStats.PermissionSwitches")
	r.set("mpk.switch_ns", p.switchRights.ns, uint64(p.switchRights.calls), "")
	r.set("mpk.window_read_ns", p.windowRead.ns, uint64(p.windowRead.calls), "")
	r.set("nvm.flushes_per_op", ratio(float64(d.flushes), ops), n, "device total")
	r.set("nvm.fences_per_op", ratio(float64(d.fences), ops), n, "device total")
	r.set("nvm.bytes_written_per_op", ratio(float64(d.bytes), ops), n, "device total")
	r.set("nvm.flushes_per_alloc", ratio(float64(d.allocFlushes), float64(d.allocOps)), d.allocOps, "alloc attribution class")
	r.set("nvm.fences_per_alloc", ratio(float64(d.allocFences), float64(d.allocOps)), d.allocOps, "alloc attribution class")
	r.set("nvm.flushes_per_free", ratio(float64(d.freeFlushes), float64(d.freeOps)), d.freeOps, "free attribution class")
	r.set("nvm.fences_per_free", ratio(float64(d.freeFences), float64(d.freeOps)), d.freeOps, "free attribution class")
	r.set("nvm.flush_line_ns", p.flushLine.ns, uint64(p.flushLine.calls), "")
	r.set("nvm.fence_ns", p.fence.ns, uint64(p.fence.calls), "")
	r.set("nvm.read_u64_ns", p.readU64.ns, uint64(p.readU64.calls), "")
	r.set("nvm.write_u64_ns", p.writeU64.ns, uint64(p.writeU64.calls), "")
	r.set("nvm.resident_mib", float64(t.residentBytes)/(1<<20), 1, "Device.ResidentBytes at the end")
	r.set("obs.trace_overhead_frac", 1-ratio(t.tracedOpsPerS, t.untracedOpsPerS), n,
		fmt.Sprintf("traced %.0f vs untraced %.0f ops/s", t.tracedOpsPerS, t.untracedOpsPerS))

	// Sum check: how much of the sampled request time each layer's spans
	// explain, and how much of the core time the probes' unit costs explain
	// at the measured per-op counts. Probe terms: device flushes and fences,
	// permission switches, one window access per core data call and one
	// block-table lookup per free. Inserts are left out: an allocation
	// reuses a free record and inserts only when it splits a block, which no
	// counter reports. What the terms leave over (txn and plog CPU work,
	// locking, core's own code) is core.unattributed_frac.
	req := s.total[spanRequest]
	fastfairSelf := s.searchSelf + s.updateSelf
	r.set("sum.client_frac", ratio(s.total[spanGen], req), uint64(s.count[spanRequest]), "generation share of request time")
	r.set("sum.fastfair_frac", ratio(fastfairSelf, req), uint64(s.count[spanRequest]), "fastfair self time share")
	r.set("sum.core_frac", ratio(s.coreTotal, req), uint64(s.count[spanRequest]), "core span share")
	perReq := func(k spanKind) float64 { return ratio(s.count[k], s.count[spanRequest]) }
	coreCalls := perReq(spanRead) + perReq(spanWrite) + perReq(spanPersist)
	reqs := float64(t.requests)
	explained := ratio(float64(d.flushes), reqs)*p.flushLine.ns +
		ratio(float64(d.fences), reqs)*p.fence.ns +
		ratio(float64(d.switches), reqs)*p.switchRights.ns +
		coreCalls*p.windowRead.ns +
		perReq(spanFree)*p.lookup.ns
	coreMean := ratio(s.coreTotal, s.count[spanRequest])
	r.set("sum.core_probe_frac", ratio(explained, coreMean), uint64(s.count[spanRequest]),
		fmt.Sprintf("%.0f of %.0f core ns per request", explained, coreMean))
	r.set("core.unattributed_frac", 1-ratio(explained, coreMean), uint64(s.count[spanRequest]), "core time the probes leave unexplained")
	r.lines = append(r.lines, fmt.Sprintf("sum check: request %.0f ns = client %.0f + fastfair %.0f + core %.0f + other %.0f (n=%d sampled requests)",
		ratio(req, s.count[spanRequest]), ratio(s.total[spanGen], s.count[spanRequest]), ratio(fastfairSelf, s.count[spanRequest]), coreMean,
		ratio(req-s.total[spanGen]-fastfairSelf-s.coreTotal, s.count[spanRequest]), uint64(s.count[spanRequest])))
}
