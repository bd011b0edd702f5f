package main

import (
	"fmt"
	"math/rand"
	"time"

	"poseidon/internal/alloc"
	"poseidon/internal/core"
)

const (
	larsonSlotsPerClient = 4096
	larsonRoundOps       = 4096 // replacements per client between rotations
	larsonMinSize        = 8
	larsonMaxSize        = 512
)

// larsonOptions is the heap the larson workload runs on: the defaults,
// with one sub-heap per client.
func larsonOptions() core.Options { return core.Options{Subheaps: maxClients} }

// larsonRand is the generator of one client's replacements in one round:
// which slot of its partition, and the new object's size.
func larsonRand(seed int64, round, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(round)*maxClients + int64(client)))
}

func larsonNext(rng *rand.Rand) (slot int, size uint64) {
	return rng.Intn(larsonSlotsPerClient), larsonMinSize + uint64(rng.Int63n(larsonMaxSize-larsonMinSize+1))
}

// larsonEnv is a heap with every slot of the shared array holding an
// object. Slot partition p is touched by one client per round, so the
// array needs no locks; rounds are separated by a barrier.
type larsonEnv struct {
	heap    *core.Heap
	a       *alloc.Poseidon
	clients int
	seed    int64
	round   int
	slots   []alloc.Ptr
	sizes   []uint64
}

func setupLarson(opts core.Options, clients int, seed int64) (*larsonEnv, error) {
	h, err := core.Create(opts)
	if err != nil {
		return nil, err
	}
	e, err := fillLarson(h, clients, seed)
	if err != nil {
		h.Close()
	}
	return e, err
}

func fillLarson(h *core.Heap, clients int, seed int64) (*larsonEnv, error) {
	n := clients * larsonSlotsPerClient
	e := &larsonEnv{heap: h, a: alloc.WrapPoseidon(h), clients: clients, seed: seed,
		slots: make([]alloc.Ptr, n), sizes: make([]uint64, n)}
	rng := rand.New(rand.NewSource(seed))
	for w := 0; w < clients; w++ {
		th, err := e.a.Thread(w)
		if err != nil {
			return nil, err
		}
		for k := w * larsonSlotsPerClient; k < (w+1)*larsonSlotsPerClient; k++ {
			_, size := larsonNext(rng)
			if e.slots[k], err = th.Alloc(size); err != nil {
				th.Close()
				return nil, err
			}
			e.sizes[k] = size
		}
		th.Close()
	}
	return e, nil
}

type larsonClient struct {
	w             int
	h             alloc.Handle
	tr            *tracer
	allocs, frees *latHist
	failed        uint64
	problems      []string
}

func (c *larsonClient) fail(err error) {
	c.failed++
	if len(c.problems) < 5 {
		c.problems = append(c.problems, err.Error())
	}
}

// replace runs one client's share of a round: each replacement frees the
// slot's object and allocates a new one, both calls timed.
func (e *larsonEnv) replace(c *larsonClient, round int) {
	base := (c.w + round) % e.clients * larsonSlotsPerClient
	rng := larsonRand(e.seed, round, c.w)
	for i := 0; i < larsonRoundOps; i++ {
		c.tr.startRequest()
		g := c.tr.begin(spanGen)
		slot, size := larsonNext(rng)
		c.tr.end(g)
		k := base + slot
		if e.slots[k] != 0 {
			t0 := time.Now()
			err := c.h.Free(e.slots[k])
			c.frees.record(time.Since(t0).Nanoseconds())
			if err != nil {
				c.fail(fmt.Errorf("free: %w", err))
			}
			e.slots[k] = 0
		}
		t0 := time.Now()
		p, err := c.h.Alloc(size)
		c.allocs.record(time.Since(t0).Nanoseconds())
		c.tr.endRequest()
		if err != nil {
			c.fail(fmt.Errorf("alloc %d B: %w", size, err))
			continue
		}
		e.slots[k], e.sizes[k] = p, size
	}
}

func (e *larsonEnv) core() *core.Heap { return e.heap }

// requests counts a phase's replacements: one alloc each.
func (e *larsonEnv) requests(ph phase) uint64 { return ph.count(0) }

func (e *larsonEnv) runPhase(warm, dur time.Duration, traceRate int, before func()) (phase, error) {
	cs := make([]*larsonClient, e.clients)
	for w := range cs {
		h, err := e.a.Thread(w)
		if err != nil {
			return phase{}, err
		}
		defer h.Close()
		cs[w] = &larsonClient{w: w, h: h, allocs: newLatHist(), frees: newLatHist()}
	}
	rounds := func(deadline time.Time) {
		for {
			parallel(e.clients, func(w int) { e.replace(cs[w], e.round) })
			e.round++
			if time.Now().After(deadline) {
				return
			}
		}
	}
	rounds(time.Now().Add(warm))
	if before != nil {
		before()
	}
	ph := newPhase(e.clients)
	for w, c := range cs {
		ph.warmOps += c.allocs.n + c.frees.n
		c.allocs, c.frees = ph.a[w], ph.b[w]
		if traceRate > 0 {
			c.h, c.tr = ph.decorate(w, c.h, e.heap.HeapID(), traceRate)
		}
	}
	start := time.Now()
	rounds(start.Add(dur))
	ph.elapsed = time.Since(start)
	for _, c := range cs {
		ph.failed += c.failed
		ph.errs = append(ph.errs, c.problems...)
	}
	return ph, nil
}

// verify checks that every slot's object is still allocated with at least
// its requested size, and returns the live user bytes.
func (e *larsonEnv) verify(r *report) (uint64, error) {
	th, err := e.heap.Thread()
	if err != nil {
		return 0, err
	}
	defer th.Close()
	var live uint64
	for k, p := range e.slots {
		if p == 0 {
			continue // its failed alloc is already counted
		}
		r.attempted++
		got, err := th.BlockSize(nvmPtr(e.heap.HeapID(), p))
		if err != nil || got < e.sizes[k] {
			r.problem("slot %d: block size %d (%v), want >= %d", k, got, err, e.sizes[k])
			continue
		}
		live += e.sizes[k]
	}
	return live, nil
}

var larsonWorkload = concurrentWorkload{
	opts: larsonOptions(),
	setup: func(opts core.Options, cfg runConfig) (concurrentEnv, error) {
		return setupLarson(opts, cfg.clients, cfg.seed)
	},
	kinds: [2]string{"alloc", "free"},
	// The p99 of a call here is a lock holder descheduled mid-operation,
	// which on a shared 2-CPU host varies several-fold between runs; p90
	// repeats.
	tail:      0.90,
	setups:    15,
	opNote:    "per alloc or free call",
	setupNote: "create + fill every slot",
}

func runLarson(cfg runConfig, r *report) error { return larsonWorkload.run(cfg, r) }
