package stack_test

import (
	"bytes"
	"io"
	"testing"

	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/filterc"
	"dfdbg/internal/h264"
	"dfdbg/internal/stack"
)

var params = h264.Params{W: 16, H: 16, QP: 8, Seed: 7}

// servedRecipe is the world a dfserve session boots.
var servedRecipe = stack.Recipe{Params: params, Ring: 1 << 16, Trace: true, Batch: stack.BatchHeld}

// soloRecipe is the world the dfdbg REPL boots: its pre-run pass
// prints the analysis warnings before the first dispatch.
var soloRecipe = stack.Recipe{Params: params, Ring: 4096, Trace: true, Batch: stack.BatchOn, PreRun: io.Discard}

// Session create, restore, reverse-step and migration import all
// rebuild a world from its recipe. After the first build in a process,
// a rebuild must reuse the interned programs, their compiled code and
// the memoized analysis: nothing is compiled, analyzed or classified
// again, so nothing accumulates per build.
func TestRebuildCompilesAndClassifiesNothing(t *testing.T) {
	for _, c := range []struct {
		name    string
		r       stack.Recipe
		lookups int64 // analysis memo lookups per build
	}{
		{"served", servedRecipe, 1}, // batch plans
		{"solo", soloRecipe, 2},     // pre-run warnings, then batch plans
	} {
		t.Run(c.name, func(t *testing.T) {
			build := func() {
				t.Helper()
				st, err := c.r.Build()
				if err != nil {
					t.Fatal(err)
				}
				st.Shutdown()
			}
			build()
			compiles, classes := filterc.CompileTotal(), pedfgraph.ClassifyTotal()
			runs, hits := pedfgraph.AnalysisRuns(), pedfgraph.AnalysisMemoHits()
			for i := 0; i < 20; i++ {
				build()
			}
			if d := filterc.CompileTotal() - compiles; d != 0 {
				t.Errorf("20 rebuilds compiled %d programs, want 0", d)
			}
			if d := pedfgraph.ClassifyTotal() - classes; d != 0 {
				t.Errorf("20 rebuilds ran %d classifications, want 0", d)
			}
			if d := pedfgraph.AnalysisRuns() - runs; d != 0 {
				t.Errorf("20 rebuilds ran %d analyses, want 0", d)
			}
			if d := pedfgraph.AnalysisMemoHits() - hits; d != 20*c.lookups {
				t.Errorf("20 rebuilds had %d analysis memo hits, want %d: not every rebuild hit the memo", d, 20*c.lookups)
			}
		})
	}
}

// Every world built from one Params decodes one shared bitstream, and
// sharing it changes nothing: two worlds built from one recipe still end
// in the same state.
func TestRebuildSharesBitstream(t *testing.T) {
	r := stack.Recipe{Params: params, Ring: 1 << 12, Batch: stack.BatchOn}
	var bits [][]byte
	var states [][]byte
	for i := 0; i < 2; i++ {
		st, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.K.Run(); err != nil {
			t.Fatal(err)
		}
		b, err := st.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		bits = append(bits, st.App.Bits)
		states = append(states, b)
		st.Shutdown()
	}
	if len(bits[0]) == 0 || &bits[0][0] != &bits[1][0] {
		t.Error("two worlds built from one recipe encoded their bitstream twice")
	}
	if !bytes.Equal(states[0], states[1]) {
		t.Error("two worlds built from one recipe ended in different states")
	}
}

// The process-wide counters behind that reuse are published on every
// world's metrics registry.
func TestWorldPublishesReuseCounters(t *testing.T) {
	st, err := servedRecipe.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Shutdown()
	want := map[string]bool{
		"filterc_compile_total": true, "filterc_cache_hits_total": true,
		"analysis_classify_total": true, "analysis_classify_memo_hits_total": true,
		"analysis_runs_total": true, "analysis_memo_hits_total": true,
	}
	for _, m := range st.Rec.Metrics.Snapshot() {
		delete(want, m.Name)
	}
	if len(want) != 0 {
		t.Errorf("registry lacks %v", want)
	}
}

// Two worlds decoding at once on their own goroutines share interned
// programs, compiled code, memoized analyses and bitstreams. Under
// -race this covers that sharing; either way both must end in the same
// state.
func TestConcurrentWorldsSharePrograms(t *testing.T) {
	r := stack.Recipe{Params: params, Ring: 1 << 12, Batch: stack.BatchOn}
	states := make(chan []byte, 2)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, err := r.Build()
			if err != nil {
				errs <- err
				return
			}
			defer st.Shutdown()
			if _, err := st.K.Run(); err != nil {
				errs <- err
				return
			}
			b, err := st.CaptureState()
			if err != nil {
				errs <- err
				return
			}
			states <- b
		}()
	}
	var got [][]byte
	for len(got) < 2 {
		select {
		case err := <-errs:
			t.Fatal(err)
		case b := <-states:
			got = append(got, b)
		}
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Error("concurrent worlds built from one recipe ended in different states")
	}
}

// BenchmarkRecipeRebuild is one world rebuild as restore, reverse-step
// and migration import pay it, after the process's first build: the
// served recipe, and the solo recipe with its pre-run pass.
func BenchmarkRecipeRebuild(b *testing.B) {
	for _, c := range []struct {
		name string
		r    stack.Recipe
	}{{"served", servedRecipe}, {"solo", soloRecipe}} {
		b.Run(c.name, func(b *testing.B) {
			st, err := c.r.Build()
			if err != nil {
				b.Fatal(err)
			}
			st.Shutdown()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := c.r.Build()
				if err != nil {
					b.Fatal(err)
				}
				st.Shutdown()
			}
		})
	}
}
