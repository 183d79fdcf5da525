package stack_test

import (
	"bytes"
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/filterc"
	"dfdbg/internal/h264"
	"dfdbg/internal/serve"
	"dfdbg/internal/sim"
	"dfdbg/internal/stack"
)

var params = h264.Params{W: 16, H: 16, QP: 8, Seed: 7}

// servedRecipe is the world a dfserve session boots.
var servedRecipe = func() stack.Recipe {
	r, err := serve.SessionParams{W: params.W, H: params.H, QP: params.QP, Seed: params.Seed}.Recipe()
	if err != nil {
		panic(err)
	}
	return r
}()

// soloRecipe is the world the dfdbg REPL boots: its pre-run pass
// prints the analysis warnings before the first dispatch.
var soloRecipe = stack.Recipe{Params: params, Ring: 4096, Payloads: true, Batch: stack.BatchOn, PreRun: io.Discard}

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

// rebuildAllocBudget bounds the objects one warm world rebuild (Build
// and Shutdown) allocates. What remains is the world's own state: its
// processes, actors, ports, links, symbols and debugger model. Metric
// registration renders nothing and a shutdown builds no crash reports.
const rebuildAllocBudget = 1400

// Restore, reverse-step and session create each rebuild a world, so a
// rebuild's allocations are interactive latency.
func TestRebuildAllocationBudget(t *testing.T) {
	for _, c := range []struct {
		name string
		r    stack.Recipe
	}{{"served", servedRecipe}, {"solo", soloRecipe}} {
		t.Run(c.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(10, func() {
				st, err := c.r.Build()
				if err != nil {
					t.Fatal(err)
				}
				st.Shutdown()
			})
			if allocs > rebuildAllocBudget {
				t.Errorf("a warm rebuild allocates %.0f objects, budget %d", allocs, rebuildAllocBudget)
			}
			t.Logf("%.0f objects per warm rebuild", allocs)
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

// bootedWorlds builds n served worlds, each left as Build leaves it, or
// run to simulated time until when until is not 0.
func bootedWorlds(tb testing.TB, n int, until sim.Time) []*stack.Stack {
	tb.Helper()
	worlds := make([]*stack.Stack, n)
	for i := range worlds {
		st, err := servedRecipe.Build()
		if err != nil {
			tb.Fatal(err)
		}
		if until != 0 {
			if _, err := st.K.RunUntil(until); err != nil {
				tb.Fatal(err)
			}
		}
		worlds[i] = st
	}
	return worlds
}

// Shutting a world down unwinds its parked processes; none of them is
// crashing, so the unwind builds no crash report and allocates nothing.
// The mid-run world stops with its regions batched.
func TestShutdownAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name  string
		until sim.Time
	}{{"booted", 0}, {"mid-run", 40_000}} {
		t.Run(c.name, func(t *testing.T) {
			const runs = 5
			worlds := bootedWorlds(t, 3*runs+1, c.until) // a warm-up, then three loops
			for _, m := range worlds[0].RT.RegionModes() {
				if !m.Batched {
					t.Fatalf("region %d runs per-token (%s)", m.Region, m.Reason)
				}
			}
			i := 0
			allocs := mallocs(runs, func() {
				worlds[i].Shutdown()
				i++
			})
			if allocs != 0 {
				t.Errorf("%d Shutdowns allocated %d objects, want 0", runs, allocs)
			}
		})
	}
}

// mallocs runs fn once to warm up, then n times, and returns the heap
// objects allocated over the n runs. A zero pin needs the total:
// testing.AllocsPerRun returns the integer mean, which reads 0 for up
// to n-1 allocations in n runs. The malloc counter is process-wide, so
// with the collector paused it is read over three loops and the least
// is kept: another goroutine's allocation can only add to a loop, and
// fn's own show in every one.
func mallocs(n int, fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// BenchmarkStackShutdown is the teardown a session close, a restore and
// a reverse-step pay for the world they retire: one just booted, and one
// stopped mid-decode.
func BenchmarkStackShutdown(b *testing.B) {
	for _, c := range []struct {
		name  string
		until sim.Time
	}{{"booted", 0}, {"mid-run", 40_000}} {
		b.Run(c.name, func(b *testing.B) {
			bootedWorlds(b, 1, c.until)[0].Shutdown()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := bootedWorlds(b, 1, c.until)[0]
				b.StartTimer()
				st.Shutdown()
			}
		})
	}
}
