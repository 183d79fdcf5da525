package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec names one metric of the result line, its unit, and the
// sample series it is the median of ("" for a single reading).
type metricSpec struct{ name, unit, series string }

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them, and none is ever zero on a correct run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "setup_s"},
	{"frames_per_s", "1/s", "frames_per_s"},
	{"query_ms_p50", "ms", classQuery + "_ms"},
	{"control_ms_p50", "ms", classControl + "_ms"},
	{"reverse_ms_p50", "ms", classReverse + "_ms"},
	{"heap_mb", "MB", ""},
}

// cliVerbs are the verbs whose p50 latency the traced run reports.
var cliVerbs = []string{"continue", "info", "print", "graph", "trace", "filter", "delete", "reverse-step"}

// medianSeries are series whose traced-run median is a per-layer metric.
var medianSeries = []metricSpec{
	med("pedf.build_ms", "ms"),
	med("pedf.host_ns_per_token", "ns"),
	med("analysis.plans_ms", "ms"),
	med("sim.init_ms", "ms"),
	med("sim.run_ms", "ms"),
	med("ckpt.capture_ms", "ms"),
	med("ckpt.encode_ms", "ms"),
	med("ckpt.restore.rebuild_ms", "ms"),
	med("ckpt.restore.replay_ms", "ms"),
	med("ckpt.restore.capture_ms", "ms"),
	med("ckpt.restore.compare_ms", "ms"),
	med("ckpt.journal_len", "count"),
	med("serve.create_ms", "ms"),
	med("serve.export_ms", "ms"),
	med("serve.import_ms", "ms"),
	med("drain_s", "s"),
	med("host.probe_ms", "ms"),
}

// pointValues are per-layer values recorded directly (ledger.set or
// ledger.check), reported as they stand; 0 where a workload has none.
var pointValues = []metricSpec{
	one("pedf.tokens", "count"),
	one("pedf.firings", "count"),
	one("pedf.batched_regions", "count"),
	one("sim.sim_ns", "ns"),
	one("filterc.compiles", "count"),
	one("filterc.cache_hits", "count"),
	one("obs.events", "count"),
	one("obs.dropped", "count"),
	one("ckpt.state_bytes", "bytes"),
	one("ckpt.container_bytes", "bytes"),
	one("ckpt.auto_checkpoints", "count"),
	one("serve.exec_us", "us"),
	one("serve.wire_us", "us"),
	one("router.hop_us", "us"),
	one("router.migrations", "count"),
	one("router.commands", "count"),
	one("router.migrate_ms", "ms"),
	one("router.drained_sessions", "count"),
	one("probe.transcript_match", "bool"),
}

// med is a metric that is the median of the series of the same name.
func med(name, unit string) metricSpec { return metricSpec{name, unit, name} }

// one is a metric with a single reading.
func one(name, unit string) metricSpec { return metricSpec{name, unit, ""} }

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
func perLayer() []metricSpec {
	out := []metricSpec{
		one("fail_ratio", "ratio"),
		{"query_ms_p90", "ms", classQuery + "_ms"},
		{"control_ms_p90", "ms", classControl + "_ms"},
	}
	out = append(out, medianSeries...)
	out = append(out, pointValues...)
	for _, v := range cliVerbs {
		out = append(out, metricSpec{"cli." + v + "_ms_p50", "ms", "cli." + v + "_ms"})
	}
	for _, l := range cpuLayers {
		out = append(out, one(l+".cpu_share", "share"))
	}
	return append(out,
		one("go.allocs_per_frame", "count"),
		one("go.gc_cycles", "count"),
		one("trace.span_coverage", "share"),
		one("trace.overhead", "ratio"),
		one("trace.cpu_samples", "count"),
	)
}

// minCoverage is the share of lane wall time the top-level spans must
// cover in a traced run.
const minCoverage = 0.95

// report turns one run's ledger into the printed report and result line.
type report struct {
	workload string
	seed     int64
	traced   bool
	l        *ledger
	lanes    int
	wall     time.Duration
	mallocs  uint64
	gcs      uint32

	cpu        map[string]float64 // traced: CPU share per layer
	cpuSamples int
	overhead   float64
}

// endToEndValues returns the end-to-end metrics with their timings
// scaled to the reference host state (see speed.go), and as measured.
func (r *report) endToEndValues() (scaled, raw map[string]float64) {
	l := r.l
	scaled, raw = make(map[string]float64), make(map[string]float64)
	for _, s := range endToEnd {
		scaled[s.name] = l.summary(s.series).P50
		raw[s.name] = l.summary("raw." + s.series).P50
	}
	for _, c := range []string{classQuery, classControl, classReverse} {
		scaled[c+"_ms_p50"] = l.classP50(c)
		raw[c+"_ms_p50"] = l.classP50("raw." + c)
	}
	l.mu.Lock()
	scaled["heap_mb"] = l.values["heap_mb"]
	raw["heap_mb"] = l.values["heap_mb"]
	l.mu.Unlock()
	return scaled, raw
}

func (r *report) perLayerValues() map[string]float64 {
	l := r.l
	v := make(map[string]float64)
	if l.attempted > 0 {
		v["fail_ratio"] = float64(l.failed) / float64(l.attempted)
	}
	v["query_ms_p90"] = l.summary(classQuery + "_ms").P90
	v["control_ms_p90"] = l.summary(classControl + "_ms").P90
	for _, s := range medianSeries {
		v[s.name] = l.summary(s.name).P50
	}
	l.mu.Lock()
	for k, x := range l.values {
		v[k] = x
	}
	for k, x := range l.invariant {
		v[k] = float64(x)
	}
	l.mu.Unlock()
	// Sessions decode one frame per script: host time per token is the
	// decode-advancing time per frame over the tokens of one decode.
	if v["pedf.host_ns_per_token"] == 0 && l.frames > 0 && v["pedf.tokens"] > 0 {
		v["pedf.host_ns_per_token"] = l.decodeSec * 1e9 / float64(l.frames) / v["pedf.tokens"]
	}
	for _, verb := range cliVerbs {
		v["cli."+verb+"_ms_p50"] = l.summary("cli." + verb + "_ms").P50
	}
	for layer, share := range r.cpu {
		v[layer+".cpu_share"] = share
	}
	if l.frames > 0 {
		v["go.allocs_per_frame"] = float64(r.mallocs) / float64(l.frames)
	}
	v["go.gc_cycles"] = float64(r.gcs)
	_, covered, _ := l.coverage(r.lanes, r.wall)
	v["trace.span_coverage"] = covered
	v["trace.overhead"] = r.overhead
	v["trace.cpu_samples"] = float64(r.cpuSamples)
	return v
}

// write prints the human-readable report, then the result line last.
func (r *report) write(out io.Writer) error {
	l := r.l
	if r.traced {
		// Structural checks of the ledger itself count as operations.
		_, covered, _ := l.coverage(r.lanes, r.wall)
		var err error
		if covered < minCoverage {
			err = fmt.Errorf("spans cover %.1f%% of lane wall time, want >= %.0f%%", 100*covered, 100*minCoverage)
		}
		l.op(err)
		err = nil
		sum := 0.0
		for _, s := range r.cpu {
			sum += s
		}
		if r.cpuSamples > 0 && (sum < 0.999 || sum > 1.001) {
			err = fmt.Errorf("CPU shares sum to %.4f", sum)
		}
		l.op(err)
	}

	fmt.Fprintf(out, "# perfbench workload=%s seed=%d trace=%v wall=%.3fs lanes=%d\n",
		r.workload, r.seed, r.traced, r.wall.Seconds(), r.lanes)
	fmt.Fprintf(out, "# host nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(out, "# ops attempted=%d failed=%d frames=%d decode_s=%.4f\n",
		l.attempted, l.failed, l.frames, l.decodeSec)
	for _, f := range l.failures {
		fmt.Fprintf(out, "# FAIL %s\n", strings.ReplaceAll(f, "\n", " | "))
	}
	r.printSeries(out)

	var specs []metricSpec
	var vals, raw map[string]float64
	if r.traced {
		specs, vals = perLayer(), r.perLayerValues()
		r.printSpans(out)
	} else {
		specs = endToEnd
		vals, raw = r.endToEndValues()
		p := l.summary("host.probe_ms")
		fmt.Fprintf(out, "# host probe p50=%.6gms n=%d (timings below are scaled to probe %gms; raw as measured)\n",
			p.P50, p.N, probeRefMs)
	}
	res := result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		v := finite(vals[s.name])
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		n := 1
		if s.series != "" {
			n = l.summary(s.series).N
		}
		fmt.Fprintf(out, "# metric %-28s %14.6g %-6s n=%d", s.name, v, s.unit, n)
		if raw != nil {
			fmt.Fprintf(out, " raw=%.6g", raw[s.name])
		}
		fmt.Fprintln(out)
	}
	return writeJSON(out, res)
}

// printSeries prints every sample series with its count, median and,
// when at least 10 samples lie beyond it, its p90.
func (r *report) printSeries(out io.Writer) {
	r.l.mu.Lock()
	names := make([]string, 0, len(r.l.series))
	for n := range r.l.series {
		// Per-position series feed classP50 only; the metric lines
		// print the raw medians.
		if !strings.Contains(n, "@") && !strings.HasPrefix(n, "raw.") {
			names = append(names, n)
		}
	}
	r.l.mu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		s := r.l.summary(n)
		p90 := "n/a (<10 beyond)"
		if s.HasP9 {
			p90 = fmt.Sprintf("%.6g", s.P90)
		}
		fmt.Fprintf(out, "# series %-28s n=%-5d p50=%-12.6g p90=%s\n", n, s.N, s.P50, p90)
	}
}

// printSpans prints the wall-time ledger and the CPU profile fold.
func (r *report) printSpans(out io.Writer) {
	shares, covered, other := r.l.coverage(r.lanes, r.wall)
	for _, n := range r.l.spanNames() {
		fmt.Fprintf(out, "# span %-24s %6.2f%%\n", n, 100*shares[n])
	}
	fmt.Fprintf(out, "# span %-24s %6.2f%% (covered %.2f%%)\n", "other", 100*other, 100*covered)
	for _, layer := range cpuLayers {
		fmt.Fprintf(out, "# cpu %-25s %6.2f%%\n", layer, 100*r.cpu[layer])
	}
	fmt.Fprintf(out, "# trace overhead vs untraced warm segment: %+.2f%%\n", 100*r.overhead)
}

// cpuModel reads the host CPU model from /proc/cpuinfo ("" if unknown).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
