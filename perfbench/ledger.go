package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// ledger collects everything one workload run measures: latency and
// duration series, operation counts, per-layer values, invariant counts
// and the spans timed around the benchmark's calls into each layer.
// Client goroutines share it, so every method locks.
type ledger struct {
	mu sync.Mutex

	series map[string][]float64 // named samples (ms unless the name says s)
	values map[string]float64   // per-layer point values

	attempted int
	failed    int
	failures  []string // first few failure descriptions

	frames    int     // verified decoded frames
	decodeSec float64 // wall seconds spent in decode-advancing commands

	// Top-level spans partition each client lane's wall time; the
	// uncovered remainder is "other". invariant holds counts that must
	// repeat exactly for a seed.
	spans     map[string]time.Duration
	invariant map[string]uint64

	// scale brings timings to the reference host state; the latest
	// host probe sets it (see speed.go).
	scale float64
}

func newLedger() *ledger {
	return &ledger{
		series:    make(map[string][]float64),
		values:    make(map[string]float64),
		spans:     make(map[string]time.Duration),
		invariant: make(map[string]uint64),
		scale:     1,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span closes a top-level span that began at start and returns its length.
func (l *ledger) span(name string, start time.Time) time.Duration {
	d := time.Since(start)
	l.mu.Lock()
	l.spans[name] += d
	l.mu.Unlock()
	return d
}

// addSpans adds top-level spans measured elsewhere.
func (l *ledger) addSpans(spans map[string]time.Duration) {
	l.mu.Lock()
	for name, d := range spans {
		l.spans[name] += d
	}
	l.mu.Unlock()
}

// restoreSplit records the phases of one restore that took total:
// rebuild, journal replay and state capture as the wrappers timed them,
// and the byte-compare plus bookkeeping as the remainder.
func (l *ledger) restoreSplit(c phaseClock, total time.Duration) {
	l.sample("ckpt.restore.rebuild_ms", ms(c.build))
	l.sample("ckpt.restore.replay_ms", ms(c.replay))
	l.sample("ckpt.restore.capture_ms", ms(c.capture))
	l.sample("ckpt.restore.compare_ms", ms(total-c.build-c.replay-c.capture))
}

// sample appends one value to a named series.
func (l *ledger) sample(name string, v float64) {
	l.mu.Lock()
	l.series[name] = append(l.series[name], v)
	l.mu.Unlock()
}

// timing records one end-to-end timing: under name scaled to the
// reference host state, and as measured under "raw."+name.
func (l *ledger) timing(name string, v float64) {
	l.mu.Lock()
	l.series[name] = append(l.series[name], v*l.scale)
	l.series["raw."+name] = append(l.series["raw."+name], v)
	l.mu.Unlock()
}

// set records a per-layer point value.
func (l *ledger) set(name string, v float64) {
	l.mu.Lock()
	l.values[name] = v
	l.mu.Unlock()
}

// op records one attempted operation; a non-nil err counts it failed.
func (l *ledger) op(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.failures) < 8 {
			l.failures = append(l.failures, err.Error())
		}
	}
}

// command records one debugger command's latency under its class, its
// verb, and its position at in the workload's script, and counts it as
// an operation.
func (l *ledger) command(at, line string, d time.Duration, err error) {
	c := classify(line)
	l.timing(c+"_ms", ms(d))
	l.timing(c+"_ms@"+at, ms(d))
	l.sample("cli."+verb(line)+"_ms", ms(d))
	if verb(line) == "continue" {
		l.mu.Lock()
		l.decodeSec += d.Seconds()
		l.mu.Unlock()
	}
	l.op(err)
}

// decodeTime sums the time of decode-advancing commands, as measured
// and scaled to the reference host state.
type decodeTime struct{ raw, scaled time.Duration }

// addDecode adds one decode-advancing command that took d to dt, at the
// scale of the latest host probe.
func (l *ledger) addDecode(dt *decodeTime, d time.Duration) {
	l.mu.Lock()
	dt.raw += d
	dt.scaled += time.Duration(float64(d) * l.scale)
	l.mu.Unlock()
}

// addFrames credits n verified decoded frames that took decode, and
// samples their rate, scaled and as measured.
func (l *ledger) addFrames(n int, decode decodeTime) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.frames += n
	if decode.raw > 0 && decode.scaled > 0 {
		l.series["frames_per_s"] = append(l.series["frames_per_s"], float64(n)/decode.scaled.Seconds())
		l.series["raw.frames_per_s"] = append(l.series["raw.frames_per_s"], float64(n)/decode.raw.Seconds())
	}
}

// check records a count that must repeat exactly for the seed: the first
// observation fixes it, and any later different value is drift, counted
// as a failed operation rather than noise.
func (l *ledger) check(name string, v uint64) {
	l.mu.Lock()
	prev, seen := l.invariant[name]
	if !seen {
		l.invariant[name] = v
	}
	l.mu.Unlock()
	var err error
	if seen && prev != v {
		err = fmt.Errorf("invariant %s drifted: %d then %d", name, prev, v)
	}
	l.op(err)
}

// coverage splits lanes×wall into the top-level spans and the uncovered
// remainder. Shares are of lanes×wall; covered is their sum.
func (l *ledger) coverage(lanes int, wall time.Duration) (shares map[string]float64, covered, other float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := float64(lanes) * float64(wall)
	shares = make(map[string]float64, len(l.spans))
	if total <= 0 {
		return shares, 0, 1
	}
	for name, d := range l.spans {
		shares[name] = float64(d) / total
		covered += shares[name]
	}
	return shares, covered, 1 - covered
}

// spanNames returns the recorded top-level span names, sorted.
func (l *ledger) spanNames() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.spans))
	for n := range l.spans {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// classP50 is the median, over the script positions of a command class
// ("raw."+class: as measured), of each position's median latency. Positions cost very different
// amounts (a `continue` to the next catchpoint vs. the one that finishes
// the decode), so the median of the pooled samples sits in the gap
// between two positions and follows their tails; the median of the
// per-position medians follows only their centres.
func (l *ledger) classP50(class string) float64 {
	prefix := class + "_ms@"
	l.mu.Lock()
	var meds []float64
	for name, xs := range l.series {
		if strings.HasPrefix(name, prefix) {
			meds = append(meds, summarize(xs).P50)
		}
	}
	l.mu.Unlock()
	return summarize(meds).P50
}

// summary of a named series.
func (l *ledger) summary(name string) summary {
	l.mu.Lock()
	defer l.mu.Unlock()
	return summarize(l.series[name])
}
