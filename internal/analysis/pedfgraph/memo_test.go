package pedfgraph_test

import (
	"reflect"
	"testing"

	"dfdbg/internal/analysis/absint"
	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
	"dfdbg/internal/stack"
)

func buildH264(t testing.TB, bug h264.Bug) *pedf.Runtime {
	t.Helper()
	st, err := stack.Recipe{Params: h264.Params{W: 16, H: 16, QP: 8, Seed: 7}, Bug: bug, Lazy: true}.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Shutdown)
	return st.RT
}

// warmClassesMatchFresh classifies rt twice, requires the second pass to
// be served entirely from the memo, and requires every memoized class to
// deep-equal a fresh absint.Classify of the same actor.
func warmClassesMatchFresh(t *testing.T, rt *pedf.Runtime) {
	t.Helper()
	pedfgraph.ClassifyActors(rt)
	runs, hits := pedfgraph.ClassifyTotal(), pedfgraph.MemoHits()
	warm := pedfgraph.ClassifyActors(rt)
	if d := pedfgraph.ClassifyTotal() - runs; d != 0 {
		t.Errorf("warm pass ran %d classifications, want 0", d)
	}
	if d := pedfgraph.MemoHits() - hits; d != int64(len(rt.Actors())) {
		t.Errorf("warm pass had %d memo hits, want %d", d, len(rt.Actors()))
	}
	for _, f := range rt.Actors() {
		fresh := absint.Classify(f.Prog, pedfgraph.AbsContextFor(f))
		if !reflect.DeepEqual(warm[f.Name], fresh) {
			t.Errorf("%s: memoized class\n%+v\nwant fresh\n%+v", f.Name, warm[f.Name], fresh)
		}
	}
}

func TestClassMemoMatchesFreshClassifyH264(t *testing.T) {
	for _, bug := range []h264.Bug{h264.BugNone, h264.BugSwapMBInputs, h264.BugRateStall, h264.BugBadDC} {
		warmClassesMatchFresh(t, buildH264(t, bug))
	}
}

// A loop bound read from an attribute or a datum: the port rate is the
// initial value, so instances of one program differing only in it must
// classify differently.
const boundedSrc = `void work() {
	u32 i = 0;
	while (i < pedf.attribute.n + pedf.data.m) {
		pedf.io.o[i] = i;
		i = i + 1;
	}
}`

func TestClassMemoKeepsInstanceStateApart(t *testing.T) {
	k := sim.NewKernel()
	t.Cleanup(func() { _ = k.Shutdown() })
	rt := pedf.NewRuntime(k, mach.New(k, mach.Config{}), lowdbg.New(k, dbginfo.NewTable()))
	mod, err := rt.NewModule("m", nil)
	if err != nil {
		t.Fatal(err)
	}
	u32t := filterc.Scalar(filterc.U32)
	add := func(name string, n, m int64) *pedf.Filter {
		f, err := rt.NewFilter(mod, pedf.FilterSpec{
			Name: name, Source: boundedSrc, SourceFile: "bounded.c",
			Attrs:   []pedf.VarSpec{{Name: "n", Type: u32t, Init: n}},
			Data:    []pedf.VarSpec{{Name: "m", Type: u32t, Init: m}},
			Outputs: []pedf.PortSpec{{Name: "o", Type: u32t}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	base, attr, data, same := add("base", 1, 0), add("attr", 2, 0), add("data", 1, 1), add("same", 1, 0)
	if base.Prog != attr.Prog || base.Prog != data.Prog {
		t.Fatal("instances of one source do not share their program")
	}
	warmClassesMatchFresh(t, rt)
	classes := pedfgraph.ClassifyActors(rt)
	rate := func(f *pedf.Filter) []int { return classes[f.Name].RateOf("o") }
	if got := rate(base); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("base rate = %v (class %+v), want [1]", got, classes[base.Name])
	}
	for _, f := range []*pedf.Filter{attr, data} {
		if got := rate(f); !reflect.DeepEqual(got, []int{2}) {
			t.Errorf("%s rate = %v, want [2]: the memo conflated it with base", f.Name, got)
		}
	}
	if got := rate(same); !reflect.DeepEqual(got, rate(base)) {
		t.Errorf("same rate = %v, want base's %v", got, rate(base))
	}
}

// Classes are handed out as copies: a caller scribbling over one must
// not reach the memo, nor any other world.
func TestClassMemoReturnsPrivateCopies(t *testing.T) {
	a := pedfgraph.ClassifyActors(buildH264(t, h264.BugNone))
	for _, c := range a {
		c.Verdict = "scribbled"
		c.Trace[0] = "scribbled"
		c.Trace = append(c.Trace, "scribbled")
		for i := range c.Ports {
			c.Ports[i].Port = "scribbled"
			for j := range c.Ports[i].Pattern {
				c.Ports[i].Pattern[j] = -1
			}
		}
		c.Ports = append(c.Ports, absint.PortRates{Port: "scribbled"})
		for port := range c.Rates {
			c.Rates[port] = -7
		}
	}
	warmClassesMatchFresh(t, buildH264(t, h264.BugNone))
}

// BenchmarkAnalyzeH264 pins the cost of the full static-analysis
// pipeline (graph checks, filterc checks, classification, regions,
// schedule, bounds) over the elaborated H.264 decoder, classifying
// every actor from scratch: the memo is emptied each iteration. CI
// gates it against BenchmarkAnalyzeH264Warm with cmd/benchguard.
func BenchmarkAnalyzeH264(b *testing.B) {
	benchAnalyzeH264(b, true)
}

// BenchmarkAnalyzeH264Warm is the same pipeline as a world rebuild in a
// running process sees it: every class comes from the memo.
func BenchmarkAnalyzeH264Warm(b *testing.B) {
	benchAnalyzeH264(b, false)
}

func benchAnalyzeH264(b *testing.B, cold bool) {
	rt := buildH264(b, h264.BugNone)
	if _, _, err := pedfgraph.Analyze(rt, "h264"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			pedfgraph.ResetClassMemo()
		}
		rep, _, err := pedfgraph.Analyze(rt, "h264")
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Regions) != 1 {
			b.Fatalf("regions = %d, want 1", len(rep.Regions))
		}
	}
}
