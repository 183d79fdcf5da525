// Command perfbench is the repository's benchmark. One invocation runs
// one workload against the packages' public APIs, checks its outputs,
// and prints a report followed by one JSON line of metrics:
//
//	go run . --workload decode|debug|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 the JSON carries the end-to-end metrics; --trace 1 is a
// separate traced run that carries the per-layer metrics: spans timed
// around the benchmark's calls into each layer, a CPU profile folded by
// the package of each sample's leaf frame, and probes that time one
// layer at a time. run.sh builds and runs it from the repository root.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	// One P. On the reference host (a 2-vCPU guest on a shared machine)
	// keeping both vCPUs busy makes the hypervisor steal time in bursts;
	// interleaved runs at GOMAXPROCS=2 showed 3-5x the steal of runs at 1
	// and run-to-run spreads of 60% on CPU-bound commands, against 4% at
	// 1. The report records the setting.
	runtime.GOMAXPROCS(1)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// workload is one named traffic shape.
type workload interface {
	// lanes is the number of client goroutines the loop runs.
	lanes() int
	// setup readies the workload; it may record setup_s samples, and
	// records heap_mb once its first stacks or sessions are up and ran.
	setup(l *ledger) error
	// loop drives the workload until the deadline passes. measured is
	// false for the traced run's untraced warm segment.
	loop(l *ledger, until time.Time, measured bool)
	// probe times single layers after a traced loop.
	probe(l *ledger)
	close()
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "decode":
		return newDecode(seed)
	case "debug":
		return newDebug(seed)
	case "fleet":
		return newFleet(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want decode, debug or fleet)", name)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: decode, debug or fleet")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured loop")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seed < 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("need --seed >= 0, --seconds > 0 and --trace 0 or 1")
	}
	traced := *traceFlag == 1
	w, err := newWorkload(*name, *seed)
	if err != nil {
		return err
	}
	defer w.close()
	l := newLedger()
	if err := w.setup(l); err != nil {
		return fmt.Errorf("%s setup: %w", *name, err)
	}
	span := time.Duration(*seconds * float64(time.Second))

	// The traced run first measures an untraced warm segment, so it can
	// report its own overhead.
	var warm *ledger
	var warmWall time.Duration
	if traced {
		warm = newLedger()
		t := time.Now()
		w.loop(warm, t.Add(span/4), false)
		warmWall = time.Since(t)
	}

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	w.loop(l, start.Add(span), true)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	loopOps := l.attempted
	if traced {
		pprof.StopCPUProfile()
		w.probe(l)
	}

	rep := &report{
		workload: *name, seed: *seed, traced: traced, l: l, lanes: w.lanes(), wall: wall,
		mallocs: m1.Mallocs - m0.Mallocs, gcs: m1.NumGC - m0.NumGC,
	}
	if traced {
		shares, samples, err := foldProfile(prof.Bytes())
		if err != nil {
			return err
		}
		rep.cpu, rep.cpuSamples = shares, samples
		rep.overhead = overhead(warm.attempted, warmWall, loopOps, wall)
	}
	return rep.write(stdout)
}

// overhead compares the operation rate of the traced loop with that of
// the untraced warm segment: traced time per operation over untraced,
// minus one.
func overhead(warmOps int, warmWall time.Duration, ops int, wall time.Duration) float64 {
	if warmOps == 0 || ops == 0 {
		return 0
	}
	untraced := warmWall.Seconds() / float64(warmOps)
	traced := wall.Seconds() / float64(ops)
	return traced/untraced - 1
}

// liveHeapMB returns the live heap after a forced GC, in MiB. Workloads
// take it at a fixed point of set-up: the heap grows with every session
// a process ever created, so a reading at the end of the loop would
// track how many iterations fit in the run rather than what is live.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// metric is one value of the JSON result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the report ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func writeJSON(out io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
