package main

import "math/bits"

// subBits sets the histogram's resolution: values below 2^subBits ns are
// exact, larger ones fall in buckets 1/2^subBits of their power of two wide
// (under 0.1 % relative error), so medians of separate runs differ by what
// was measured, not by bucket rounding.
const subBits = 10

// latHist is a log-linear latency histogram in nanoseconds. One client owns
// each histogram; merge them after the clients stop.
type latHist struct {
	counts []uint64
	n      uint64
	sum    uint64
}

func newLatHist() *latHist { return &latHist{counts: make([]uint64, 40<<subBits)} }

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return (e+1)<<subBits + int(v>>uint(e)) - 1<<subBits
}

// bucketRange returns the lower bound and width of bucket b.
func bucketRange(b int) (lo, width uint64) {
	if b < 1<<subBits {
		return uint64(b), 1
	}
	e := uint(b>>subBits - 1)
	m := uint64(b&(1<<subBits-1)) + 1<<subBits
	return m << e, 1 << e
}

func (h *latHist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := bucketOf(uint64(ns))
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
	h.n++
	h.sum += uint64(ns)
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-th quantile (nearest rank, interpolated inside its
// bucket) in nanoseconds; zero when empty.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, w := bucketRange(b)
			return float64(lo) + float64(w)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return 0
}

func (h *latHist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
