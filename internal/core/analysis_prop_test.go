package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dfdbg/internal/analysis"
	"dfdbg/internal/analysis/absint"
	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// Property 1: the analyzers never crash and report no errors on any
// well-formed random application — statically (pedfgraph, before the run)
// and on the reconstructed model (AnalysisGraph, after the run).
func TestAnalysisCleanOnRandomApps(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			app := buildRandomApp(t, rng, 4)

			rep, err := pedfgraph.CheckRuntime(app.rt, "random")
			if err != nil {
				t.Fatalf("CheckRuntime: %v", err)
			}
			if n := rep.Errors(); n != 0 {
				t.Fatalf("static analysis found %d error(s) in a well-formed app:\n%s",
					n, reportText(rep))
			}

			if ev := app.low.Continue(); ev.Kind != lowdbg.StopDone || ev.Deadlock != nil {
				t.Fatalf("run = %v (deadlock %v)", ev, ev.Deadlock)
			}

			g := app.d.AnalysisGraph()
			if len(g.Actors) == 0 || len(g.Links) == 0 {
				t.Fatalf("reconstructed analysis graph is empty: %d actors, %d links",
					len(g.Actors), len(g.Links))
			}
			if len(g.Links) != len(app.d.Links()) {
				t.Errorf("analysis graph has %d links, model has %d",
					len(g.Links), len(app.d.Links()))
			}
			post := analysis.CheckGraph(g)
			if n := post.Errors(); n != 0 {
				t.Errorf("post-run graph analysis found %d error(s):\n%s", n, reportText(post))
			}
		})
	}
}

// Classes served from the analyzer's process-wide memo must equal a
// fresh classification of every actor of every random application.
func TestClassMemoMatchesFreshOnRandomApps(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		app := buildRandomApp(t, rand.New(rand.NewSource(seed)), 4)
		pedfgraph.ClassifyActors(app.rt)
		runs := pedfgraph.ClassifyTotal()
		warm := pedfgraph.ClassifyActors(app.rt)
		if pedfgraph.ClassifyTotal() != runs {
			t.Errorf("seed %d: second classification was not served from the memo", seed)
		}
		for _, f := range app.rt.Actors() {
			if fresh := absint.Classify(f.Prog, pedfgraph.AbsContextFor(f)); !reflect.DeepEqual(warm[f.Name], fresh) {
				t.Errorf("seed %d, %s: memoized class %+v, want fresh %+v", seed, f.Name, warm[f.Name], fresh)
			}
		}
	}
}

func reportText(r *analysis.Report) string {
	s := ""
	for _, d := range r.Diags {
		s += d.String() + "\n"
	}
	return s
}

// propApp is the reduced harness for the hand-built deadlock scenarios.
type propApp struct {
	rt  *pedf.Runtime
	low *lowdbg.Debugger
	k   *sim.Kernel
}

func newPropApp(t *testing.T) (*propApp, *pedf.Module) {
	t.Helper()
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	Attach(low)
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 4})
	rt := pedf.NewRuntime(k, m, low)
	mod, err := rt.NewModule("m", nil)
	if err != nil {
		t.Fatal(err)
	}
	return &propApp{rt: rt, low: low, k: k}, mod
}

// buildCycleApp wires two filters into a zero-token data cycle: a classic
// SDF deadlock. Both block popping their first input token.
func buildCycleApp(t *testing.T) *propApp {
	t.Helper()
	app, mod := newPropApp(t)
	u32t := filterc.Scalar(filterc.U32)
	a, err := app.rt.NewFilter(mod, pedf.FilterSpec{
		Name:    "a",
		Source:  "void work() {\n\tu32 v = pedf.io.loop_in[0];\n\tpedf.io.loop_out[0] = v + 1;\n}\n",
		Inputs:  []pedf.PortSpec{{Name: "loop_in", Type: u32t}},
		Outputs: []pedf.PortSpec{{Name: "loop_out", Type: u32t}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := app.rt.NewFilter(mod, pedf.FilterSpec{
		Name:    "b",
		Source:  "void work() {\n\tu32 v = pedf.io.val_in[0];\n\tpedf.io.next_out[0] = v + 1;\n}\n",
		Inputs:  []pedf.PortSpec{{Name: "val_in", Type: u32t}},
		Outputs: []pedf.PortSpec{{Name: "next_out", Type: u32t}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.rt.Bind(a.Out("loop_out"), b.In("val_in")); err != nil {
		t.Fatal(err)
	}
	if err := app.rt.Bind(b.Out("next_out"), a.In("loop_in")); err != nil {
		t.Fatal(err)
	}
	ctl := "u32 work() {\n\tACTOR_FIRE(\"a\");\n\tACTOR_FIRE(\"b\");\n\tWAIT_FOR_ACTOR_SYNC();\n\treturn 0;\n}\n"
	if _, err := app.rt.SetController(mod, pedf.ControllerSpec{Source: ctl}); err != nil {
		t.Fatal(err)
	}
	if err := app.rt.Start(); err != nil {
		t.Fatal(err)
	}
	return app
}

// buildStrandedFeedApp feeds 3 tokens into a filter consuming 2 per
// firing and fires it twice: the second firing blocks on the 4th token.
func buildStrandedFeedApp(t *testing.T) *propApp {
	t.Helper()
	app, mod := newPropApp(t)
	u32t := filterc.Scalar(filterc.U32)
	src := "void work() {\n\tu32 a = pedf.io.i0[0];\n\tu32 b = pedf.io.i0[1];\n\tpedf.io.o0[0] = a + b;\n}\n"
	c, err := app.rt.NewFilter(mod, pedf.FilterSpec{
		Name:    "c",
		Source:  src,
		Inputs:  []pedf.PortSpec{{Name: "i0", Type: u32t}},
		Outputs: []pedf.PortSpec{{Name: "o0", Type: u32t}},
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := mod.AddPort("in", pedf.In, u32t)
	if err != nil {
		t.Fatal(err)
	}
	out, err := mod.AddPort("out", pedf.Out, u32t)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.rt.Bind(in, c.In("i0")); err != nil {
		t.Fatal(err)
	}
	if err := app.rt.Bind(c.Out("o0"), out); err != nil {
		t.Fatal(err)
	}
	feed := []filterc.Value{
		filterc.Int(filterc.U32, 10),
		filterc.Int(filterc.U32, 20),
		filterc.Int(filterc.U32, 30),
	}
	if err := app.rt.FeedInput(in, feed); err != nil {
		t.Fatal(err)
	}
	if _, err := app.rt.CollectOutput(out); err != nil {
		t.Fatal(err)
	}
	ctl := "u32 work() {\n\tACTOR_FIRE(\"c\");\n\tWAIT_FOR_ACTOR_SYNC();\n\tif (STEP_INDEX() + 1 >= 2) return 0;\n\treturn 1;\n}\n"
	if _, err := app.rt.SetController(mod, pedf.ControllerSpec{Source: ctl}); err != nil {
		t.Fatal(err)
	}
	if err := app.rt.Start(); err != nil {
		t.Fatal(err)
	}
	return app
}

// Property 2: any application that deadlocks at runtime carries at least
// one warning-or-worse static diagnostic — the analyzer predicted it.
func TestDeadlockImpliesStaticDiagnostic(t *testing.T) {
	cases := []struct {
		name     string
		build    func(*testing.T) *propApp
		wantCode string
	}{
		{"zero-token-cycle", buildCycleApp, "DF003"},
		{"stranded-feed", buildStrandedFeedApp, "DF006"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			app := tc.build(t)

			rep, err := pedfgraph.CheckRuntime(app.rt, tc.name)
			if err != nil {
				t.Fatalf("CheckRuntime: %v", err)
			}
			found := false
			flagged := 0
			for _, d := range rep.Diags {
				if d.Sev >= analysis.Warning {
					flagged++
				}
				if d.Code == tc.wantCode {
					found = true
				}
			}
			if flagged == 0 {
				t.Errorf("static analysis reported nothing at warning level or above")
			}
			if !found {
				t.Errorf("static analysis missing %s:\n%s", tc.wantCode, reportText(rep))
			}

			ev := app.low.Continue()
			if ev.Kind != lowdbg.StopDone || ev.Deadlock == nil {
				t.Fatalf("expected a runtime deadlock, got %v (deadlock %v)", ev, ev.Deadlock)
			}
		})
	}
}
