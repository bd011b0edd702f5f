package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/nvm"
)

// TestSameSeedSameInputs checks that a seed fixes every generated input:
// the ycsb-a and larson request streams, and the objects and open
// transactions the restart workload crashes.
func TestSameSeedSameInputs(t *testing.T) {
	const n = 10_000
	type req struct {
		item uint64
		upd  bool
	}
	ycsbStream := func(seed int64, client int) []req {
		g := newYCSBGen(seed, client, 1000)
		out := make([]req, n)
		for i := range out {
			out[i].item, out[i].upd = g.next()
		}
		return out
	}
	type repl struct {
		slot int
		size uint64
	}
	larsonStream := func(seed int64, round, client int) []repl {
		rng := larsonRand(seed, round, client)
		out := make([]repl, n)
		for i := range out {
			out[i].slot, out[i].size = larsonNext(rng)
		}
		return out
	}
	if !equal(ycsbStream(7, 1), ycsbStream(7, 1)) || equal(ycsbStream(7, 1), ycsbStream(8, 1)) ||
		equal(ycsbStream(7, 0), ycsbStream(7, 1)) {
		t.Error("ycsb-a requests do not follow the seed")
	}
	if !equal(larsonStream(7, 3, 1), larsonStream(7, 3, 1)) || equal(larsonStream(7, 3, 1), larsonStream(8, 3, 1)) ||
		equal(larsonStream(7, 3, 1), larsonStream(7, 4, 1)) {
		t.Error("larson replacements do not follow the seed")
	}
	if testing.Short() {
		return
	}
	a, err := setupRestart(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setupRestart(7)
	if err != nil {
		t.Fatal(err)
	}
	// The images themselves differ in the heap ID and timestamps; the
	// objects, their places and the open transactions must not.
	locs := func(ps []core.NVMPtr) []uint64 {
		out := make([]uint64, len(ps))
		for i, p := range ps {
			out[i] = p.Loc()
		}
		return out
	}
	if !equal(a.sizes, b.sizes) || !equal(locs(a.acked), locs(b.acked)) || !equal(locs(a.open), locs(b.open)) {
		t.Error("restart set-ups of one seed differ")
	}
}

func equal[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// deviceCounts runs fn on a fresh one-client heap with device counters on
// and returns the counters fn's calls added.
func deviceCounts(t *testing.T, opts core.Options, fn func(h *core.Heap)) nvm.StatsSnapshot {
	t.Helper()
	opts.Subheaps = 1
	opts.DeviceStats = true
	h, err := core.Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	before := h.DeviceStats()
	fn(h)
	after := h.DeviceStats()
	return nvm.StatsSnapshot{
		Enabled:      true,
		Writes:       after.Writes - before.Writes,
		BytesWritten: after.BytesWritten - before.BytesWritten,
		Flushes:      after.Flushes - before.Flushes,
		Fences:       after.Fences - before.Fences,
	}
}

// TestDecoratorForwardsUnchanged runs the same one-client ycsb-a and larson
// requests through the bare handle and through the tracing decorator, with
// every request traced, and requires identical device traffic.
func TestDecoratorForwardsUnchanged(t *testing.T) {
	const records, requests = 2000, 5000
	ycsbRun := func(decorate bool) func(h *core.Heap) {
		return func(h *core.Heap) {
			e, err := setupYCSBOn(h, 1, 1, records)
			if err != nil {
				t.Fatal(err)
			}
			c := e.client(t, decorate)
			gen := newYCSBGen(1, 0, records)
			for i := 0; i < requests; i++ {
				c.tr.startRequest()
				item, upd := gen.next()
				if upd {
					err = e.update(c, item)
				} else {
					err = e.read(c, item)
				}
				c.tr.endRequest()
				if err != nil {
					t.Fatal(err)
				}
			}
			c.h.Close()
		}
	}
	bare := deviceCounts(t, ycsbOptions(), ycsbRun(false))
	traced := deviceCounts(t, ycsbOptions(), ycsbRun(true))
	if bare != traced || bare.Flushes == 0 {
		t.Errorf("ycsb-a device traffic: bare %+v, decorated %+v", bare, traced)
	}

	larsonRun := func(decorate bool) func(h *core.Heap) {
		return func(h *core.Heap) {
			e, err := fillLarson(h, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			th, err := e.a.Thread(0)
			if err != nil {
				t.Fatal(err)
			}
			c := &larsonClient{h: th, allocs: newLatHist(), frees: newLatHist()}
			if decorate {
				ph := newPhase(1)
				c.h, c.tr = ph.decorate(0, th, h.HeapID(), 1)
			}
			for round := 0; round < 4; round++ {
				e.replace(c, round)
			}
			if c.failed != 0 {
				t.Fatal(c.problems)
			}
			c.h.Close()
		}
	}
	bare = deviceCounts(t, larsonOptions(), larsonRun(false))
	traced = deviceCounts(t, larsonOptions(), larsonRun(true))
	if bare != traced || bare.Flushes == 0 {
		t.Errorf("larson device traffic: bare %+v, decorated %+v", bare, traced)
	}
}

func (e *ycsbEnv) client(t *testing.T, decorate bool) *ycsbClient {
	t.Helper()
	h, err := e.a.Thread(0)
	if err != nil {
		t.Fatal(err)
	}
	c := e.newClient(h, nil, ycsbGen{})
	if decorate {
		ph := newPhase(1)
		c.h, c.tr = ph.decorate(0, h, e.heap.HeapID(), 1)
	}
	return c
}

// TestTracerSelfTime checks the span arithmetic: a fastfair span's self
// time excludes the core spans under it.
func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{rate: 1, spans: make([]span, 0, 2048), parent: -1}
	tr.startRequest()
	tr.spans = append(tr.spans[:1], span{start: 10, end: 110, req: 1, parent: 0, kind: spanSearch},
		span{start: 20, end: 50, req: 1, parent: 1, kind: spanRead},
		span{start: 60, end: 70, req: 1, parent: 1, kind: spanRead})
	tr.spans[0].start, tr.spans[0].end = 0, 120
	s := summarize([]*tracer{tr})
	if s.searchSelf != 60 || s.searchCore != 2 || s.coreTotal != 40 || s.total[spanRequest] != 120 {
		t.Errorf("summary %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newLatHist()
	for v := int64(1); v <= 100_000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.quantile(q), q*100_000
		if math.Abs(got-want)/want > 0.002 {
			t.Errorf("q%.2f = %.1f, want %.1f", q, got, want)
		}
	}
	for b := 0; b < 30<<subBits; b++ {
		lo, w := bucketRange(b)
		if bucketOf(lo) != b || bucketOf(lo+w-1) != b {
			t.Fatalf("bucket %d: range [%d, %d) maps elsewhere", b, lo, lo+w)
		}
	}
}

// TestProvenanceMatchesOptions keeps provenance.json's record of each
// workload's heap in step with the code, down to the layout the defaults
// produce: a change to a core default that moves the device capacity or
// sub-heap count fails here until the record is updated.
func TestProvenanceMatchesOptions(t *testing.T) {
	raw, err := os.ReadFile("provenance.json")
	if err != nil {
		t.Fatal(err)
	}
	var prov struct {
		Workloads map[string]struct {
			Options        json.RawMessage
			Subheaps       int           `json:"subheaps"`
			DeviceCapacity uint64        `json:"device_capacity"`
			LoadOptions    *core.Options `json:"load_options"`
		}
	}
	if err := json.Unmarshal(raw, &prov); err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]core.Options{
		"ycsb-a": ycsbOptions(), "larson": larsonOptions(), "restart": restartOptions(),
	} {
		rec, ok := prov.Workloads[name]
		if !ok {
			t.Errorf("provenance.json has no %s", name)
			continue
		}
		var recorded core.Options
		if err := json.Unmarshal(rec.Options, &recorded); err != nil {
			t.Fatal(err)
		}
		if recorded != opts {
			t.Errorf("%s: provenance.json records options %+v, the benchmark uses %+v", name, recorded, opts)
		}
		h, err := core.Create(opts)
		if err != nil {
			t.Fatal(err)
		}
		if h.Subheaps() != rec.Subheaps || h.Device().Capacity() != rec.DeviceCapacity {
			t.Errorf("%s: provenance.json records %d sub-heaps on %d B, the options give %d on %d B",
				name, rec.Subheaps, rec.DeviceCapacity, h.Subheaps(), h.Device().Capacity())
		}
		h.Close()
	}
	if rec := prov.Workloads["restart"].LoadOptions; rec == nil || *rec != restartLoadOptions() {
		t.Errorf("restart: provenance.json records load options %+v, the benchmark uses %+v", rec, restartLoadOptions())
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the result line and
// BENCHMARK.json in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, benchmark %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the benchmark", w.Name)
		}
	}
}
