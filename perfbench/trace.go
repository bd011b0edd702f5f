package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"poseidon/internal/alloc"
	"poseidon/internal/core"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanRequest spanKind = iota // one whole client request, generation included
	spanGen                     // client: key and choice generation
	spanSearch                  // fastfair.Tree.Search
	spanUpdate                  // fastfair.Tree.Update
	spanAlloc                   // core, through the decorated handle
	spanFree
	spanRead // Read and ReadU64
	spanWrite
	spanPersist
	spanLoad // core.Load
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"request", "client.gen", "fastfair.search", "fastfair.update",
	"core.alloc", "core.free", "core.read", "core.write", "core.persist", "core.load",
}

func (k spanKind) isCore() bool { return k >= spanAlloc }

// span is one timed call. Start and end are nanoseconds since the tracer's
// base; parent indexes the enclosing span in the same tracer, -1 for a
// request root.
type span struct {
	start, end int64
	req        uint32
	parent     int32
	kind       spanKind
}

// tracer keeps one client's spans in memory. It samples one request in
// rate and keeps every span of a sampled request; once the buffer is full
// it stops sampling, so a long run cannot grow without bound.
type tracer struct {
	base    time.Time
	rate    int
	spans   []span
	on      bool
	req     uint32
	parent  int32
	seen    uint64 // requests offered to the sampler
	sampled uint64
}

func newTracer(base time.Time, rate, capacity int) *tracer {
	return &tracer{base: base, rate: rate, spans: make([]span, 0, capacity), parent: -1}
}

// startRequest decides whether the next request is sampled and opens its
// root span. Callers pair it with endRequest.
func (t *tracer) startRequest() {
	if t == nil {
		return
	}
	t.seen++
	t.on = t.rate > 0 && t.seen%uint64(t.rate) == 0 && len(t.spans)+1024 < cap(t.spans)
	if !t.on {
		return
	}
	t.sampled++
	t.req++
	t.parent = -1
	t.parent = t.begin(spanRequest)
}

func (t *tracer) endRequest() {
	if t == nil || !t.on {
		return
	}
	t.end(t.parent)
	t.parent = -1
	t.on = false
}

// begin opens a span under the current parent and makes it the parent of
// spans opened before the matching end. It returns -1 when the request is
// not sampled.
func (t *tracer) begin(k spanKind) int32 {
	if t == nil || !t.on {
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{start: int64(time.Since(t.base)), req: t.req, parent: t.parent, kind: k})
	t.parent = i
	return i
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.end = int64(time.Since(t.base))
	t.parent = s.parent
}

// writeSpans writes every kept span as one CSV row, for inspection after
// the run.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client,req,span,parent,kind,start_ns,end_ns")
	for c, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d,%d,%d,%d,%s,%d,%d\n", c, s.req, i, s.parent, spanNames[s.kind], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary is what the per-layer metrics are computed from: for each
// span kind its count and total time, and the self time of the fastfair
// spans (their duration minus the core spans under them).
type spanSummary struct {
	count, total [numSpanKinds]float64
	searchSelf   float64
	updateSelf   float64
	searchCore   float64 // core calls under fastfair.search spans
	coreTotal    float64 // every core span, under fastfair or not
}

func summarize(tracers []*tracer) spanSummary {
	var s spanSummary
	for _, t := range tracers {
		childCore := make([]float64, len(t.spans))
		childCalls := make([]float64, len(t.spans))
		for _, sp := range t.spans {
			d := float64(sp.end - sp.start)
			s.count[sp.kind]++
			s.total[sp.kind] += d
			if sp.kind.isCore() {
				s.coreTotal += d
				if sp.parent >= 0 {
					childCore[sp.parent] += d
					childCalls[sp.parent]++
				}
			}
		}
		for i, sp := range t.spans {
			d := float64(sp.end - sp.start)
			switch sp.kind {
			case spanSearch:
				s.searchSelf += d - childCore[i]
				s.searchCore += childCalls[i]
			case spanUpdate:
				s.updateSelf += d - childCore[i]
			}
		}
	}
	return s
}

func (s spanSummary) mean(k spanKind) float64 {
	if s.count[k] == 0 {
		return 0
	}
	return s.total[k] / s.count[k]
}

// tracedHandle decorates an alloc.Handle: each call is forwarded unchanged
// and, when the current request is sampled, timed as a core span. Frees
// are classified as cross-sub-heap by decoding the pointer against the
// handle's shard.
type tracedHandle struct {
	inner  alloc.Handle
	tr     *tracer
	heapID uint64
	shard  int

	frees      uint64
	crossFrees uint64
}

var _ alloc.Handle = (*tracedHandle)(nil)

func (h *tracedHandle) Alloc(size uint64) (alloc.Ptr, error) {
	i := h.tr.begin(spanAlloc)
	p, err := h.inner.Alloc(size)
	h.tr.end(i)
	return p, err
}

func (h *tracedHandle) Free(p alloc.Ptr) error {
	h.frees++
	if p != 0 && int(nvmPtr(h.heapID, p).Subheap()) != h.shard {
		h.crossFrees++
	}
	i := h.tr.begin(spanFree)
	err := h.inner.Free(p)
	h.tr.end(i)
	return err
}

func (h *tracedHandle) Write(p alloc.Ptr, off uint64, b []byte) error {
	i := h.tr.begin(spanWrite)
	err := h.inner.Write(p, off, b)
	h.tr.end(i)
	return err
}

func (h *tracedHandle) Read(p alloc.Ptr, off uint64, b []byte) error {
	i := h.tr.begin(spanRead)
	err := h.inner.Read(p, off, b)
	h.tr.end(i)
	return err
}

func (h *tracedHandle) WriteU64(p alloc.Ptr, off uint64, v uint64) error {
	i := h.tr.begin(spanWrite)
	err := h.inner.WriteU64(p, off, v)
	h.tr.end(i)
	return err
}

func (h *tracedHandle) ReadU64(p alloc.Ptr, off uint64) (uint64, error) {
	i := h.tr.begin(spanRead)
	v, err := h.inner.ReadU64(p, off)
	h.tr.end(i)
	return v, err
}

func (h *tracedHandle) Persist(p alloc.Ptr, off, n uint64) error {
	i := h.tr.begin(spanPersist)
	err := h.inner.Persist(p, off, n)
	h.tr.end(i)
	return err
}

func (h *tracedHandle) Close() { h.inner.Close() }

// nvmPtr decodes a pointer alloc.Poseidon handed out: its NVMPtr location
// plus one.
func nvmPtr(heapID uint64, p alloc.Ptr) core.NVMPtr { return core.PtrFromLoc(heapID, uint64(p)-1) }
