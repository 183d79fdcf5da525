// Command benchguard gates same-host ratios between rows of one
// `go test -bench` output and fails when a ratio leaves its bound.
//
// Usage:
//
//	go test -run xxx -bench 'BenchmarkFilterC' -benchtime 100x -count 3 . | \
//	  benchguard -r 'BenchmarkFilterC / BenchmarkFilterCCompiled/walker/nohooks <= 0.25'
//
// Each -r flag is one gate, `A / B <= BOUND` or `A / B >= BOUND`, where
// A and B are benchmark names (sub-benchmarks in their slash form, CPU
// suffixes stripped). A row's value is the median of its ns/op samples
// (repeated -count runs). Both rows come from the same run on the same
// host, so the gate holds on any machine: it catches a regression
// confined to one side of the pair, not a host that is slower overall.
// A gated row missing from the input is an error: a guard that silently
// stops measuring is worse than none.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// gate is one parsed -r flag: num/den must stay at or under (at or
// over, when floor is set) bound.
type gate struct {
	num, den string
	floor    bool
	bound    float64
}

type gateList []gate

func (g *gateList) String() string { return fmt.Sprint(*g) }

// gateExpr matches `A / B <= 0.25` and `A / B >= 4`.
var gateExpr = regexp.MustCompile(`^\s*(Benchmark\S+)\s+/\s+(Benchmark\S+)\s+(<=|>=)\s+([0-9.]+)\s*$`)

func (g *gateList) Set(s string) error {
	m := gateExpr.FindStringSubmatch(s)
	if m == nil {
		return fmt.Errorf("want 'BenchmarkA / BenchmarkB <= BOUND' (or >=), got %q", s)
	}
	bound, err := strconv.ParseFloat(m[4], 64)
	if err != nil || bound <= 0 {
		return fmt.Errorf("bound in %q is not a positive number", s)
	}
	*g = append(*g, gate{num: m[1], den: m[2], floor: m[3] == ">=", bound: bound})
	return nil
}

func main() {
	var gates gateList
	flag.Var(&gates, "r", "'BenchmarkA / BenchmarkB <= BOUND' or '>= BOUND' (repeatable)")
	flag.Parse()
	in := io.Reader(os.Stdin)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	if err := run(in, os.Stdout, gates); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer, gates gateList) error {
	if len(gates) == 0 {
		return fmt.Errorf("usage: benchguard -r 'BenchmarkA / BenchmarkB <= BOUND' [...] [bench-output]")
	}
	results, err := parseBench(in)
	if err != nil {
		return err
	}
	var failures []string
	for _, g := range gates {
		var med [2]float64
		for i, name := range []string{g.num, g.den} {
			samples := results[name]
			if len(samples) == 0 {
				return fmt.Errorf("benchmark %s not found in input (did it run?)", name)
			}
			med[i] = median(samples)
		}
		ratio := med[0] / med[1]
		op, verdict := "<=", "ok"
		if g.floor {
			op = ">="
		}
		if (g.floor && ratio < g.bound) || (!g.floor && ratio > g.bound) {
			verdict = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s / %s = %.3g", g.num, g.den, ratio))
		}
		fmt.Fprintf(out, "%s / %s = %.0f / %.0f ns/op = %.3g (%s %g)  %s\n",
			g.num, g.den, med[0], med[1], ratio, op, g.bound, verdict)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d ratio(s) out of bounds: %s", len(failures), strings.Join(failures, "; "))
	}
	return nil
}

// benchLine matches `BenchmarkName-8   100   162383 ns/op ...` (the -N
// CPU suffix is optional and stripped).
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parseBench collects every ns/op sample per benchmark name from go
// test -bench output (repeated -count runs yield multiple samples).
func parseBench(r io.Reader) (map[string][]float64, error) {
	out := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		out[m[1]] = append(out[m[1]], v)
	}
	return out, sc.Err()
}

// median of samples (middle of the sorted slice; noise-resistant
// compared to the mean on shared CI runners).
func median(s []float64) float64 {
	s = append([]float64(nil), s...)
	sort.Float64s(s)
	return s[len(s)/2]
}
