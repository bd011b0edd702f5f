// Command perfbench is the repository's benchmark. It runs one workload
// against the default heap configuration for a fixed time, checks every
// result, and prints the workload's metrics for people followed by one
// JSON result line:
//
//	perfbench --workload ycsb-a --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - ycsb-a: YCSB workload A (50 % reads, 50 % updates, Zipf 0.99, 100 B
//     values) over FAST-FAIR on 100k loaded records, two clients.
//   - larson: two clients replacing 8–512 B objects in a shared slot array
//     whose partitions rotate, so most frees cross sub-heaps.
//   - restart: serial core.Load of a crashed 200k-object image with open
//     transactional allocations, timed once per rebuilt device.
//
// With --trace 0 the result line carries the end-to-end metrics; with
// --trace 1 the run repeats the workload with spans and counters on and
// carries the per-layer metrics instead. The process exits non-zero if any
// operation or correctness check failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/obs"
)

const (
	// maxClients is the closed-loop client count of the concurrent
	// workloads (fewer when the machine has fewer CPUs).
	maxClients = 2
	// traceRate samples one request in traceRate; traceSpans caps the
	// spans one client keeps.
	traceRate  = 64
	traceSpans = 1 << 19
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	clients  int
	out      string
}

// warm is the untimed warm-up before each timed phase.
func (c runConfig) warm() time.Duration {
	return time.Duration(c.seconds * 0.05 * float64(time.Second))
}

// measure is the timed phase of an untraced run.
func (c runConfig) measure() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// tracedPhase is the length of each of the three phases of a traced run,
// leaving the rest of the run for the probes.
func (c runConfig) tracedPhase() time.Duration {
	return time.Duration(c.seconds * 0.28 * float64(time.Second))
}

// saveSpans writes the traced phase's spans under the output directory.
func (c runConfig) saveSpans(tracers []*tracer) error {
	if c.out == "" {
		return nil
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(c.out, fmt.Sprintf("spans-%s-seed%d.csv", c.workload, c.seed)), tracers)
}

// tracedOptions turns on what a traced run reads: telemetry (which also
// turns on device counters and attribution) and a watchdog whose threshold
// never fires, which turns on the lock wait and hold histograms.
func tracedOptions(o core.Options) core.Options {
	o.Telemetry = obs.New()
	o.Watchdog = core.WatchdogOptions{StallThreshold: time.Hour}
	return o
}

// tableShape returns the deepest sub-heap's active block-table levels and
// the largest per-sub-heap record count.
func tableShape(h *core.Heap) (levels, records int, err error) {
	for i := 0; i < h.Subheaps(); i++ {
		info, err := h.InspectSubheap(i)
		if err != nil {
			return 0, 0, err
		}
		levels = max(levels, info.ActiveLevels)
		records = max(records, int(info.AllocatedBlocks+info.FreeBlocks))
	}
	return levels, records, nil
}

// timeSetups sets a workload up n times and returns the last result and the
// median set-up time in seconds. Each set-up starts after a garbage
// collection, so one set-up's garbage is not charged to the next; release
// frees each result but the last before the next set-up starts.
func timeSetups[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var last, none T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			release(last)
			last = none
		}
		runtime.GC()
		t := time.Now()
		v, err := setup()
		if err != nil {
			return none, 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// parallel runs fn(0..n-1) on n goroutines and waits for them.
func parallel(n int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

var workloads = map[string]func(runConfig, *report) error{
	"ycsb-a":  runYCSB,
	"larson":  runLarson,
	"restart": runRestart,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"ycsb-a", "larson", "restart"}

func main() {
	workload := flag.String("workload", "", "ycsb-a, larson, restart, or all of them in turn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := flag.String("out", "", "directory the traced run writes its spans to")
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	if workloads[names[0]] == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload ycsb-a|larson|restart|all, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	ok := true
	for _, name := range names {
		cfg := runConfig{workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out,
			clients: min(maxClients, runtime.NumCPU())}
		ok = runOne(cfg) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload and prints its report; it reports whether every
// operation and check passed.
func runOne(cfg runConfig) bool {
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%t clients=%d %s nproc=%d GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.clients, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	r := newReport()
	if err := workloads[cfg.workload](cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return false
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	return r.print(os.Stdout, defs)
}
