package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"poseidon/internal/alloc"
	"poseidon/internal/core"
	"poseidon/internal/fastfair"
	"poseidon/internal/ycsb"
)

const (
	ycsbRecords   = 100_000
	ycsbTheta     = 0.99
	ycsbUpdatePct = 50
	// oracleStripes bounds the per-item locks the read oracle needs: a
	// reader holds its item's stripe shared, an updater exclusive, so a
	// read sees exactly the latest installed version and never a value
	// block an updater has already freed.
	oracleStripes = 1024
)

var errOracle = errors.New("oracle")

// ycsbOptions is the heap the ycsb-a workload runs on: the defaults, with
// one sub-heap per client and block tables large enough for 50k values
// each (with the default 4 MiB metadata region, updates run out of table
// slots).
func ycsbOptions() core.Options {
	return core.Options{Subheaps: maxClients, SubheapMetaSize: 8 << 20}
}

// loadPayload is the value ycsb.Load writes under every key: version 0.
var loadPayload = func() []byte {
	b := make([]byte, ycsb.ValueSize)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}()

// encodeValue fills b with the value of version ver of key: the key, the
// version, filler, and a check word binding the two.
func encodeValue(b []byte, key, ver uint64) {
	copy(b, loadPayload)
	binary.LittleEndian.PutUint64(b[0:], key)
	binary.LittleEndian.PutUint64(b[8:], ver)
	binary.LittleEndian.PutUint64(b[ycsb.ValueSize-8:], key^ver*0x9E3779B97F4A7C15)
}

func checkValue(b []byte, key, ver uint64) error {
	if ver == 0 {
		if !bytes.Equal(b, loadPayload) {
			return fmt.Errorf("%w: key %#x: expected the loaded value", errOracle, key)
		}
		return nil
	}
	gk := binary.LittleEndian.Uint64(b[0:])
	gv := binary.LittleEndian.Uint64(b[8:])
	gc := binary.LittleEndian.Uint64(b[ycsb.ValueSize-8:])
	if gk != key || gv != ver || gc != key^ver*0x9E3779B97F4A7C15 {
		return fmt.Errorf("%w: key %#x: read key %#x version %d, want version %d", errOracle, key, gk, gv, ver)
	}
	return nil
}

// ycsbGen generates one client's requests: a Zipfian item and a
// read-or-update choice, both from the run's seed.
type ycsbGen struct {
	z   *ycsb.Zipf
	rng *rand.Rand
}

func newYCSBGen(seed int64, client int, n uint64) ycsbGen {
	s := seed*1_000_003 + int64(client)
	return ycsbGen{z: ycsb.NewZipf(s, n, ycsbTheta), rng: rand.New(rand.NewSource(s ^ 0x5bd1e995))}
}

func (g ycsbGen) next() (item uint64, update bool) {
	return g.z.Next(), g.rng.Intn(100) < ycsbUpdatePct
}

// ycsbEnv is a loaded FAST-FAIR tree over one heap, plus the oracle state:
// the version last installed under each item.
type ycsbEnv struct {
	heap    *core.Heap
	a       *alloc.Poseidon
	tree    *fastfair.Tree
	clients int
	seed    int64
	n       uint64
	ver     []uint64 // guarded by locks[item%oracleStripes]
	locks   [oracleStripes]sync.RWMutex
}

// setupYCSB creates the heap and loads n records through ycsb.Load, the
// clients loading disjoint key ranges in parallel.
func setupYCSB(opts core.Options, clients int, seed int64, n uint64) (*ycsbEnv, error) {
	h, err := core.Create(opts)
	if err != nil {
		return nil, err
	}
	e, err := setupYCSBOn(h, clients, seed, n)
	if err != nil {
		h.Close()
	}
	return e, err
}

func setupYCSBOn(h *core.Heap, clients int, seed int64, n uint64) (*ycsbEnv, error) {
	e := &ycsbEnv{heap: h, a: alloc.WrapPoseidon(h), clients: clients, seed: seed, n: n, ver: make([]uint64, n)}
	h0, err := e.a.Thread(0)
	if err != nil {
		return nil, err
	}
	e.tree, err = fastfair.New(h0)
	h0.Close()
	if err != nil {
		return nil, err
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h, err := e.a.Thread(w)
			if err != nil {
				errs[w] = err
				return
			}
			defer h.Close()
			from, to := n*uint64(w)/uint64(clients), n*uint64(w+1)/uint64(clients)
			_, errs[w] = ycsb.Load(e.tree, h, from, to)
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("ycsb load: %w", err)
	}
	return e, nil
}

// ycsbClient is one closed-loop client.
type ycsbClient struct {
	h                alloc.Handle
	tr               *tracer
	gen              ycsbGen
	reads, updates   *latHist
	failed           uint64
	problems         []string
	payload, readBuf []byte
}

func (e *ycsbEnv) newClient(h alloc.Handle, tr *tracer, gen ycsbGen) *ycsbClient {
	return &ycsbClient{h: h, tr: tr, gen: gen, reads: newLatHist(), updates: newLatHist(),
		payload: make([]byte, ycsb.ValueSize), readBuf: make([]byte, ycsb.ValueSize)}
}

// run issues requests until the deadline, timing each from after its
// generation to its completion.
func (e *ycsbEnv) run(c *ycsbClient, deadline time.Time) {
	for {
		c.tr.startRequest()
		g := c.tr.begin(spanGen)
		item, upd := c.gen.next()
		c.tr.end(g)
		t0 := time.Now()
		var err error
		if upd {
			err = e.update(c, item)
		} else {
			err = e.read(c, item)
		}
		t1 := time.Now()
		c.tr.endRequest()
		if upd {
			c.updates.record(t1.Sub(t0).Nanoseconds())
		} else {
			c.reads.record(t1.Sub(t0).Nanoseconds())
		}
		if err != nil {
			c.failed++
			if len(c.problems) < 5 {
				c.problems = append(c.problems, err.Error())
			}
		}
		if t1.After(deadline) {
			return
		}
	}
}

func (e *ycsbEnv) read(c *ycsbClient, item uint64) error {
	key := ycsb.KeyOf(item)
	l := &e.locks[item%oracleStripes]
	l.RLock()
	defer l.RUnlock()
	s := c.tr.begin(spanSearch)
	v, found, err := e.tree.Search(c.h, key)
	c.tr.end(s)
	switch {
	case err != nil:
		return err
	case item >= e.n:
		if found {
			return fmt.Errorf("%w: key %#x was never loaded but is present", errOracle, key)
		}
		return nil
	case !found:
		return fmt.Errorf("%w: key %#x is missing", errOracle, key)
	}
	if err := c.h.Read(alloc.Ptr(v), 0, c.readBuf); err != nil {
		return err
	}
	return checkValue(c.readBuf, key, e.ver[item])
}

// update installs a new value block under the item, as ycsb.WorkloadA
// does: allocate, write, persist, swap into the tree, free the old block.
func (e *ycsbEnv) update(c *ycsbClient, item uint64) error {
	key := ycsb.KeyOf(item)
	nv, err := c.h.Alloc(ycsb.ValueSize)
	if err != nil {
		return err
	}
	l := &e.locks[item%oracleStripes]
	l.Lock()
	var ver uint64
	if item < e.n {
		ver = e.ver[item] + 1
	}
	encodeValue(c.payload, key, ver)
	err = c.h.Write(nv, 0, c.payload)
	if err == nil {
		err = c.h.Persist(nv, 0, ycsb.ValueSize)
	}
	var old uint64
	found := false
	if err == nil {
		s := c.tr.begin(spanUpdate)
		old, found, err = e.tree.Update(c.h, key, uint64(nv))
		c.tr.end(s)
	}
	if err == nil && found && item < e.n {
		e.ver[item] = ver
	}
	l.Unlock()
	if err != nil {
		return err
	}
	if !found {
		ferr := c.h.Free(nv)
		if item < e.n {
			return fmt.Errorf("%w: key %#x is missing", errOracle, key)
		}
		return ferr
	}
	if item >= e.n {
		return fmt.Errorf("%w: key %#x was never loaded but is present", errOracle, key)
	}
	return c.h.Free(alloc.Ptr(old))
}

// liveUserBytes is what the application holds: one value per record plus
// the tree's nodes, every other live block.
func (e *ycsbEnv) liveUserBytes() (uint64, error) {
	var blocks uint64
	for i := 0; i < e.heap.Subheaps(); i++ {
		info, err := e.heap.InspectSubheap(i)
		if err != nil {
			return 0, err
		}
		blocks += info.AllocatedBlocks
	}
	return e.n*ycsb.ValueSize + (blocks-e.n)*fastfair.NodeSize, nil
}

func (e *ycsbEnv) core() *core.Heap { return e.heap }

// requests counts a phase's requests: reads plus updates.
func (e *ycsbEnv) requests(ph phase) uint64 { return ph.ops() }

// verify returns the live user bytes; every read was checked as it ran.
func (e *ycsbEnv) verify(*report) (uint64, error) { return e.liveUserBytes() }

func (e *ycsbEnv) runPhase(warm, dur time.Duration, traceRate int, before func()) (phase, error) {
	cs := make([]*ycsbClient, e.clients)
	for w := range cs {
		h, err := e.a.Thread(w)
		if err != nil {
			return phase{}, err
		}
		defer h.Close()
		cs[w] = e.newClient(h, nil, newYCSBGen(e.seed, w, e.n))
	}
	parallel(e.clients, func(w int) { e.run(cs[w], time.Now().Add(warm)) })
	if before != nil {
		before()
	}
	ph := newPhase(e.clients)
	for w, c := range cs {
		ph.warmOps += c.reads.n + c.updates.n
		c.reads, c.updates = ph.a[w], ph.b[w]
		if traceRate > 0 {
			c.h, c.tr = ph.decorate(w, c.h, e.heap.HeapID(), traceRate)
		}
	}
	start := time.Now()
	parallel(e.clients, func(w int) { e.run(cs[w], start.Add(dur)) })
	ph.elapsed = time.Since(start)
	for _, c := range cs {
		ph.failed += c.failed
		ph.errs = append(ph.errs, c.problems...)
	}
	return ph, nil
}

var ycsbWorkload = concurrentWorkload{
	opts: ycsbOptions(),
	setup: func(opts core.Options, cfg runConfig) (concurrentEnv, error) {
		return setupYCSB(opts, cfg.clients, cfg.seed, ycsbRecords)
	},
	kinds:     [2]string{"read", "update"},
	tail:      0.99,
	setups:    3,
	opNote:    "per request",
	setupNote: "create + ycsb.Load",
}

func runYCSB(cfg runConfig, r *report) error { return ycsbWorkload.run(cfg, r) }
