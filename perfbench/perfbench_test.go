package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		ok     bool
		p50    float64
		p90    float64
		beyond int
	}{
		{n: 0},
		{n: 1, p50: 1},
		{n: 10, p50: 5.5},
		{n: 99, p50: 50},
		{n: 100, ok: true, p50: 50.5, p90: 90, beyond: 10},
		{n: 101, ok: true, p50: 51, p90: 91, beyond: 10},
		{n: 250, ok: true, p50: 125.5, p90: 225, beyond: 25},
	} {
		s := summarize(series(tc.n))
		if s.N != tc.n || s.HasP9 != tc.ok || s.P50 != tc.p50 {
			t.Errorf("n=%d: got %+v, want p50 %v p90 reported %v", tc.n, s, tc.p50, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if s.P90 != tc.p90 {
			t.Errorf("n=%d: p90 = %v, want %v", tc.n, s.P90, tc.p90)
		}
		beyond := 0
		for _, x := range series(tc.n) {
			if x > s.P90 {
				beyond++
			}
		}
		if beyond != tc.beyond || beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond p90, want %d (>= %d)", tc.n, beyond, tc.beyond, minBeyond)
		}
	}
}

// TestClassP50UsesPositionMedians: two script positions, a cheap and a
// dear one, sampled equally. The pooled median falls in the gap and
// moves with the cheap position's tail; the class p50 is the mean of
// the two positions' medians and does not.
func TestClassP50UsesPositionMedians(t *testing.T) {
	l := newLedger()
	for i, cheap := range []time.Duration{10, 11, 12, 13, 90} {
		l.command("0", "info links", cheap*time.Microsecond, nil)
		l.command("1", "graph", time.Duration(100+i)*time.Microsecond, nil)
	}
	if got, want := l.classP50(classQuery), (0.012+0.102)/2; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("classP50 = %v, want %v", got, want)
	}
	if got := l.summary(classQuery + "_ms").P50; got != (0.090+0.100)/2 {
		t.Errorf("pooled p50 = %v, want the gap between the positions", got)
	}
	if l.classP50(classReverse) != 0 {
		t.Error("classP50 of an absent class is not 0")
	}
}

func TestClassify(t *testing.T) {
	for line, want := range map[string]string{
		"info filters":                 classQuery,
		"print $1":                     classQuery,
		"graph":                        classQuery,
		"trace balance":                classQuery,
		"checkpoint":                   classQuery,
		"":                             classQuery,
		"continue":                     classControl,
		"filter pipe catch work":       classControl,
		"filter pipe print last_token": classControl, // the journal classifier works by verb
		"delete catch 1":               classControl,
		"batch":                        classControl,
		"frobnicate":                   classControl, // unknown verbs are journaled
		"reverse-step":                 classReverse,
		"reverse-continue":             classReverse,
		"  reverse-step  ":             classReverse,
	} {
		if got := classify(line); got != want {
			t.Errorf("classify(%q) = %s, want %s", line, got, want)
		}
	}
	for _, script := range [][]string{debugScript, fleetScript} {
		n := map[string]int{}
		for _, line := range script {
			n[classify(line)]++
		}
		if n[classQuery] == 0 || n[classControl] == 0 || n[classReverse] == 0 {
			t.Errorf("script lacks a command class: %v", n)
		}
	}
}

func TestSpanCoverageSumsToWall(t *testing.T) {
	l := newLedger()
	start := time.Now().Add(-100 * time.Millisecond)
	l.span("sim.run", start) // ~100ms
	l.addSpans(map[string]time.Duration{"pedf.build": 40 * time.Millisecond, "cli.query": 10 * time.Millisecond})
	l.mu.Lock()
	run := l.spans["sim.run"]
	l.mu.Unlock()
	wall := run + 50*time.Millisecond + 50*time.Millisecond // 50ms uncovered per lane over 2 lanes
	shares, covered, other := l.coverage(2, wall)
	sum := other
	for _, s := range shares {
		sum += s
	}
	if d := sum - 1; d > 1e-9 || d < -1e-9 {
		t.Fatalf("spans + other = %v of lane wall, want 1", sum)
	}
	want := float64(run+50*time.Millisecond) / float64(2*wall)
	if d := covered - want; d > 1e-9 || d < -1e-9 {
		t.Errorf("covered = %v, want %v", covered, want)
	}
	if _, c, o := newLedger().coverage(1, 0); c != 0 || o != 1 {
		t.Errorf("empty ledger: covered %v other %v", c, o)
	}
}

func TestCheckReportsDrift(t *testing.T) {
	l := newLedger()
	l.check("pedf.tokens", 7)
	l.check("pedf.tokens", 7)
	if l.failed != 0 || l.attempted != 2 {
		t.Fatalf("repeat: attempted %d failed %d", l.attempted, l.failed)
	}
	l.check("pedf.tokens", 8)
	if l.failed != 1 || !strings.Contains(l.failures[0], "drifted") {
		t.Fatalf("drift not reported as a failure: %v", l.failures)
	}
}

func TestFoldProfileSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	shares, n, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("no CPU samples taken")
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
	_ = x
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dfdbg/internal/sim.(*Kernel).Run":             "sim",
		"dfdbg/internal/fault.(*Injector).Check":       "sim",
		"dfdbg/internal/h264.decodeFrame":              "pedf",
		"dfdbg/internal/pedf.(*Link).commitSlot":       "pedf",
		"dfdbg/internal/filterc.(*vm).run":             "filterc",
		"dfdbg/internal/trace.(*Recorder).onPush":      "lowdbg",
		"dfdbg/internal/analysis/absint.(*Interp).Run": "analysis",
		"dfdbg/internal/ckpt/wire.(*Writer).U64":       "ckpt",
		"dfdbg/internal/router.(*Router).migrate":      "router",
		"dfdbg/internal/web.(*Host).Serve":             "other",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"sync.(*Mutex).Lock":                           "runtime",
		"encoding/json.(*decodeState).object":          "wire",
		"internal/poll.(*FD).Read":                     "wire",
		"strings.(*Builder).WriteString":               "other",
		"main.run":                                     "other",
	} {
		if got := layerOf(funcPackage(fn)); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root declares exactly the metrics the result line carries.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer())
}
