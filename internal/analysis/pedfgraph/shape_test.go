package pedfgraph_test

import (
	"bytes"
	"reflect"
	"testing"

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

// A world built with a warm memo must install the same plans and print
// the same pre-run lines as one built right after the memo is emptied,
// and serve both without analyzing; a memoized BatchPlans must equal a
// fresh one over the same runtime.
func TestAnalysisMemoMatchesFresh(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	configs := map[string]stack.Recipe{
		"batch-on":  {Batch: stack.BatchOn},
		"held":      {Batch: stack.BatchHeld},
		"lazy":      {Batch: stack.BatchOn, Lazy: true},
		"link-cap":  {Batch: stack.BatchOn, LinkCap: 8},
		"fault":     {Batch: stack.BatchOn, FaultSeed: 11},
		"no-prerun": {Batch: stack.BatchOn},
	}
	for _, bug := range []h264.Bug{h264.BugNone, h264.BugSwapMBInputs, h264.BugRateStall, h264.BugBadDC} {
		for name, r := range configs {
			r.Params, r.Bug = p, bug
			// build returns the world's installed plans and pre-run lines;
			// a lazy world prints them at its first dispatch.
			build := func() (*stack.Stack, []pedf.RegionMode, string) {
				t.Helper()
				var out bytes.Buffer
				if name != "no-prerun" {
					r.PreRun = &out
				}
				st, err := r.Build()
				if err != nil {
					t.Fatalf("%s/%s: %v", bug, name, err)
				}
				t.Cleanup(st.Shutdown)
				if r.Lazy {
					if _, err := st.K.RunUntil(0); err != nil {
						t.Fatalf("%s/%s: %v", bug, name, err)
					}
				}
				return st, st.RT.RegionModes(), out.String()
			}
			pedfgraph.ResetAnalysisMemo()
			_, freshModes, freshLines := build()
			runs := pedfgraph.AnalysisRuns()
			st, memoModes, memoLines := build()
			if d := pedfgraph.AnalysisRuns() - runs; d != 0 {
				t.Errorf("%s/%s: warm build ran %d analyses, want 0", bug, name, d)
			}
			if !reflect.DeepEqual(memoModes, freshModes) {
				t.Errorf("%s/%s: memoized regions\n%+v\nwant fresh\n%+v", bug, name, memoModes, freshModes)
			}
			if memoLines != freshLines {
				t.Errorf("%s/%s: memoized pre-run lines\n%s\nwant fresh\n%s", bug, name, memoLines, freshLines)
			}
			memo, err := pedfgraph.BatchPlans(st.RT, stack.AppName)
			if err != nil {
				t.Fatal(err)
			}
			pedfgraph.ResetAnalysisMemo()
			fresh, err := pedfgraph.BatchPlans(st.RT, stack.AppName)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(memo, fresh) {
				t.Errorf("%s/%s: memoized plans\n%+v\nwant fresh\n%+v", bug, name, memo, fresh)
			}
		}
	}

	// The decoder prints no warnings; the small application's unused
	// local does.
	prerun := func() string {
		rt := smallApp(t, 4, 0, 2)
		var out bytes.Buffer
		pedfgraph.InstallPreRun(rt.K, rt, "small", &out)
		if _, err := rt.K.RunUntil(0); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	pedfgraph.ResetAnalysisMemo()
	fresh := prerun()
	runs := pedfgraph.AnalysisRuns()
	memo := prerun()
	if d := pedfgraph.AnalysisRuns() - runs; d != 0 {
		t.Errorf("small app: warm pre-run ran %d analyses, want 0", d)
	}
	if fresh == "" || memo != fresh {
		t.Errorf("small app: memoized pre-run lines\n%s\nwant fresh, non-empty\n%s", memo, fresh)
	}
}

// smallApp starts a one-filter application: the environment feeds
// `feed` tokens through links of depth linkCap, and the filter's datum
// m starts at m0. The filter's unused local draws an FC002 warning.
func smallApp(t *testing.T, linkCap int, m0 int64, feed int) *pedf.Runtime {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(func() { _ = k.Shutdown() })
	rt := pedf.NewRuntime(k, mach.New(k, mach.Config{}), lowdbg.New(k, dbginfo.NewTable()))
	rt.LinkCap = linkCap
	mod, err := rt.NewModule("m", nil)
	if err != nil {
		t.Fatal(err)
	}
	u32t := filterc.Scalar(filterc.U32)
	in, _ := mod.AddPort("in", pedf.In, u32t)
	out, _ := mod.AddPort("out", pedf.Out, u32t)
	f, err := rt.NewFilter(mod, pedf.FilterSpec{
		Name: "add", Source: `void work() { u32 spare = 0; pedf.io.o[0] = pedf.io.i[0] + pedf.data.m; }`, SourceFile: "add.c",
		Data:    []pedf.VarSpec{{Name: "m", Type: u32t, Init: m0}},
		Inputs:  []pedf.PortSpec{{Name: "i", Type: u32t}},
		Outputs: []pedf.PortSpec{{Name: "o", Type: u32t}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SetController(mod, pedf.ControllerSpec{
		Source: `u32 work() { ACTOR_FIRE("add"); WAIT_FOR_ACTOR_SYNC(); return 1; }`,
	}); err != nil {
		t.Fatal(err)
	}
	vals := make([]filterc.Value, feed)
	for i := range vals {
		vals[i] = filterc.Int(filterc.U32, int64(i))
	}
	for _, err := range []error{rt.Bind(in, f.In("i")), rt.Bind(f.Out("o"), out), rt.FeedInput(in, vals)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.CollectOutput(out); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	return rt
}

// The memo key covers every input the analysis reads: an identical
// application hits, and changing any one input misses.
func TestAnalysisMemoKeepsShapesApart(t *testing.T) {
	pedfgraph.ResetAnalysisMemo()
	analyses := func(rt *pedf.Runtime) int64 {
		t.Helper()
		runs := pedfgraph.AnalysisRuns()
		if _, err := pedfgraph.BatchPlans(rt, "small"); err != nil {
			t.Fatal(err)
		}
		return pedfgraph.AnalysisRuns() - runs
	}
	base := smallApp(t, 4, 0, 2)
	if n := analyses(base); n != 1 {
		t.Fatalf("first analysis ran %d analyses, want 1", n)
	}
	if n := analyses(smallApp(t, 4, 0, 2)); n != 0 {
		t.Errorf("an identical application ran %d analyses, want 0", n)
	}
	for name, rt := range map[string]*pedf.Runtime{
		"link cap":       smallApp(t, 8, 0, 2),
		"data init":      smallApp(t, 4, 1, 2),
		"feed count":     smallApp(t, 4, 0, 3),
		"boot occupancy": base,
	} {
		if name == "boot occupancy" {
			base.Links()[0].InjectToken(filterc.Int(filterc.U32, 9))
		}
		if n := analyses(rt); n != 1 {
			t.Errorf("%s changed: ran %d analyses, want 1 (the memo conflated two shapes)", name, n)
		}
	}
}

// Plans are handed out as copies: scribbling over BatchPlans' result or
// over the regions a runtime reports must not reach the memo.
func TestAnalysisMemoReturnsPrivateCopies(t *testing.T) {
	st, err := stack.Recipe{Params: h264.Params{W: 16, H: 16, QP: 8, Seed: 7}, Batch: stack.BatchOn}.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Shutdown()
	plans, err := pedfgraph.BatchPlans(st.RT, stack.AppName)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 || len(st.RT.RegionModes()) == 0 {
		t.Fatal("no batchable region found in the decoder")
	}
	for i := range plans {
		plans[i].Region = -1
		plans[i].Actors[0] = "scribbled"
		plans[i].Schedule[0] = "scribbled"
		plans[i].Rings[0].Slots = -1
		plans[i].Actors = append(plans[i].Actors, "scribbled")
	}
	for _, m := range st.RT.RegionModes() {
		m.Actors[0] = "scribbled"
		m.Schedule[0] = "scribbled"
	}
	memo, err := pedfgraph.BatchPlans(st.RT, stack.AppName)
	if err != nil {
		t.Fatal(err)
	}
	pedfgraph.ResetAnalysisMemo()
	fresh, err := pedfgraph.BatchPlans(st.RT, stack.AppName)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(memo, fresh) {
		t.Errorf("a caller's writes reached the memo:\n%+v\nwant fresh\n%+v", memo, fresh)
	}
}

// BenchmarkAnalysisMemoHit is a world build's analysis once the memo
// holds its shape: the key over the runtime, the lookup and the copy of
// the plans.
func BenchmarkAnalysisMemoHit(b *testing.B) {
	rt := buildH264(b, h264.BugNone)
	if _, err := pedfgraph.BatchPlans(rt, "h264"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pedfgraph.BatchPlans(rt, "h264"); err != nil {
			b.Fatal(err)
		}
	}
}
