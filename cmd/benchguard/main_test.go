package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: dfdbg
BenchmarkFilterC-4           	     100	    160000 ns/op	        1000 stmts/op
BenchmarkFilterC-4           	     100	    180000 ns/op	        1000 stmts/op
BenchmarkFilterC-4           	     100	    170000 ns/op	        1000 stmts/op
BenchmarkFilterCCompiled/walker/nohooks-4  	     100	   1100000 ns/op
BenchmarkObsOverhead/disabled-4  	       3	  66000000 ns/op
BenchmarkObsOverhead/events-4    	       3	  69000000 ns/op
PASS
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got["BenchmarkFilterC"]); n != 3 {
		t.Errorf("FilterC samples = %d, want 3", n)
	}
	if v := got["BenchmarkObsOverhead/disabled"]; len(v) != 1 || v[0] != 66000000 {
		t.Errorf("sub-benchmark samples = %v", v)
	}
	if med := median(got["BenchmarkFilterC"]); med != 170000 {
		t.Errorf("median = %g, want 170000", med)
	}
}

// gates parses flags the way the command line does.
func gates(t *testing.T, exprs ...string) gateList {
	t.Helper()
	var g gateList
	for _, e := range exprs {
		if err := g.Set(e); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestRunVerdicts(t *testing.T) {
	// A pass: the VM row is 0.15 of the walker row, the recorded decode
	// 1.05 of the bare one.
	g := gates(t,
		"BenchmarkFilterC / BenchmarkFilterCCompiled/walker/nohooks <= 0.25",
		"BenchmarkObsOverhead/events / BenchmarkObsOverhead/disabled >= 0.5")
	var out strings.Builder
	if err := run(strings.NewReader(sampleBench), &out, g); err != nil {
		t.Fatalf("within-bound run failed: %v\n%s", err, out.String())
	}
	if strings.Count(out.String(), "  ok\n") != 2 {
		t.Errorf("output lacks verdicts:\n%s", out.String())
	}

	// A ratio over its bound fails loudly, and so does one under a floor.
	slow := strings.ReplaceAll(sampleBench, "0000 ns/op\t        1000", "00000 ns/op\t        1000")
	for _, c := range []struct {
		in   string
		gate string
	}{
		{slow, "BenchmarkFilterC / BenchmarkFilterCCompiled/walker/nohooks <= 0.25"},
		{sampleBench, "BenchmarkObsOverhead/events / BenchmarkObsOverhead/disabled >= 1.1"},
	} {
		out.Reset()
		err := run(strings.NewReader(c.in), &out, gates(t, c.gate))
		if err == nil || !strings.Contains(err.Error(), "out of bounds") ||
			!strings.Contains(out.String(), "REGRESSION") {
			t.Errorf("%s: regression not caught: %v\n%s", c.gate, err, out.String())
		}
	}

	// A gated row absent from the input is an error, on either side.
	for _, e := range []string{
		"BenchmarkGone / BenchmarkFilterC <= 1",
		"BenchmarkFilterC / BenchmarkGone <= 1",
	} {
		if err := run(strings.NewReader(sampleBench), &out, gates(t, e)); err == nil ||
			!strings.Contains(err.Error(), "BenchmarkGone not found") {
			t.Errorf("%s: missing benchmark not caught: %v", e, err)
		}
	}
	if err := run(strings.NewReader(sampleBench), &out, nil); err == nil {
		t.Error("a run with no gates passed")
	}
}

func TestGateFlag(t *testing.T) {
	g := gates(t, "BenchmarkA/x / BenchmarkB/y <= 1.5", "  BenchmarkA / BenchmarkB >= 2 ")
	want := gateList{
		{num: "BenchmarkA/x", den: "BenchmarkB/y", bound: 1.5},
		{num: "BenchmarkA", den: "BenchmarkB", floor: true, bound: 2},
	}
	if len(g) != len(want) || g[0] != want[0] || g[1] != want[1] {
		t.Errorf("gates = %+v, want %+v", g, want)
	}
	for _, bad := range []string{
		"garbage",
		"BenchmarkA=a.b",               // the retired baseline mapping
		"BenchmarkA / BenchmarkB < 2",  // strict comparison
		"BenchmarkA / BenchmarkB <= ",  // no bound
		"BenchmarkA / BenchmarkB <= 0", // a bound no ratio can meet
		"BenchmarkA / BenchmarkB <= 1.2.3",
		"BenchmarkA/BenchmarkB <= 2", // the division needs spaces
		"A / BenchmarkB <= 2",        // not a benchmark name
	} {
		var g gateList
		if err := g.Set(bad); err == nil {
			t.Errorf("malformed gate %q accepted: %+v", bad, g)
		}
	}
}
