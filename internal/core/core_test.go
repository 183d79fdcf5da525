package core

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

var u32 = filterc.Scalar(filterc.U32)

func u32v(i int64) filterc.Value { return filterc.Int(filterc.U32, i) }

// harness bundles the full stack: kernel, machine, low-level debugger,
// dataflow layer, and a small two-filter splitter application:
//
//	env -> red (splitter) -> {a, b} -> pipe -> env
type harness struct {
	k   *sim.Kernel
	low *lowdbg.Debugger
	d   *Debugger
	rt  *pedf.Runtime
	col *pedf.Collector
}

// redSrc: line 4 is the first dataflow assignment (for step_both tests).
const redSrc = `void work() {
	u32 v = pedf.io.bh_in[0];
	pedf.data.last = v;
	pedf.io.a_out[0] = v + 1;
	pedf.io.b_out[0] = v + 2;
}`

const pipeSrc = `void work() {
	u32 x = pedf.io.a_in[0];
	u32 y = pedf.io.b_in[0];
	pedf.io.out[0] = x * 100 + y;
}`

func newHarness(t *testing.T, steps int, feed []filterc.Value) *harness {
	t.Helper()
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	d := Attach(low)
	m := mach.New(k, mach.Config{Clusters: 2, PEsPerCluster: 4})
	rt := pedf.NewRuntime(k, m, low)

	mod, err := rt.NewModule("m", nil)
	if err != nil {
		t.Fatal(err)
	}
	min, _ := mod.AddPort("in", pedf.In, u32)
	mout, _ := mod.AddPort("out", pedf.Out, u32)
	red, err := rt.NewFilter(mod, pedf.FilterSpec{
		Name: "red", Source: redSrc,
		Data:    []pedf.VarSpec{{Name: "last", Type: u32}},
		Inputs:  []pedf.PortSpec{{Name: "bh_in", Type: u32}},
		Outputs: []pedf.PortSpec{{Name: "a_out", Type: u32}, {Name: "b_out", Type: u32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := rt.NewFilter(mod, pedf.FilterSpec{
		Name: "pipe", Source: pipeSrc,
		Inputs:  []pedf.PortSpec{{Name: "a_in", Type: u32}, {Name: "b_in", Type: u32}},
		Outputs: []pedf.PortSpec{{Name: "out", Type: u32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl := `u32 work() {
	ACTOR_START("red");
	ACTOR_START("pipe");
	WAIT_FOR_ACTOR_INIT();
	ACTOR_SYNC("red");
	ACTOR_SYNC("pipe");
	WAIT_FOR_ACTOR_SYNC();
	if (STEP_INDEX() + 1 >= ` + itoa(steps) + `) return 0;
	return 1;
}`
	if _, err := rt.SetController(mod, pedf.ControllerSpec{Source: ctl}); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(rt.Bind(min, red.In("bh_in")))
	must(rt.Bind(red.Out("a_out"), pipe.In("a_in")))
	must(rt.Bind(red.Out("b_out"), pipe.In("b_in")))
	must(rt.Bind(pipe.Out("out"), mout))
	must(rt.FeedInput(min, feed))
	col, err := rt.CollectOutput(mout)
	must(err)
	return &harness{k: k, low: low, d: d, rt: rt, col: col}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// boot starts the runtime and lets the t=0 initialization phase run so
// the graph is reconstructed before the test plants catchpoints.
func (h *harness) boot(t *testing.T) {
	t.Helper()
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	if st, err := h.k.RunUntil(0); err != nil || st != sim.RunHorizon {
		t.Fatalf("boot: %v %v", st, err)
	}
}

func feedN(n int) []filterc.Value {
	var out []filterc.Value
	for i := 0; i < n; i++ {
		out = append(out, u32v(int64(10*(i+1))))
	}
	return out
}

// ---- architecture fidelity ----

func TestCoreDoesNotImportPEDF(t *testing.T) {
	// The two-level discipline of Figure 3: the dataflow layer may only
	// talk to the low-level debugger.
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), `"dfdbg/internal/pedf"`) {
			t.Errorf("%s imports internal/pedf — the dataflow layer must stay framework-independent", f)
		}
	}
}

// The CLI's trace views fold the obs ring; internal/trace is left only
// for perfbench's hand-built world (its own module, not walked here).
// No program file may import it again, except internal/cli for the
// type of the CLI's Rec field.
func TestOnlyCLIImportsTrace(t *testing.T) {
	root := filepath.Join("..", "..")
	allowed := map[string]bool{"internal/cli": true, "internal/trace": true}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil || allowed[filepath.ToSlash(dir)] {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"dfdbg/internal/trace"` {
				t.Errorf("%s imports internal/trace — fold the obs ring instead", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSymbolNamesMatchFramework(t *testing.T) {
	pairs := map[string]string{
		symRegisterModule: pedf.SymRegisterModule, symRegisterFilter: pedf.SymRegisterFilter,
		symRegisterController: pedf.SymRegisterController, symRegisterPort: pedf.SymRegisterPort,
		symBind: pedf.SymBind, symLinkPush: pedf.SymLinkPush, symLinkPop: pedf.SymLinkPop,
		symCtrlPush: pedf.SymCtrlPush, symCtrlPop: pedf.SymCtrlPop,
		symActorStart: pedf.SymActorStart, symActorSync: pedf.SymActorSync,
		symWaitActorInit: pedf.SymWaitActorInit, symWaitActorSync: pedf.SymWaitActorSync,
		symStepBegin: pedf.SymStepBegin, symStepEnd: pedf.SymStepEnd,
		tfLinkInject: pedf.TFLinkInject, tfLinkDrop: pedf.TFLinkDrop,
		tfLinkReplace: pedf.TFLinkReplace, tfLinkPeek: pedf.TFLinkPeek,
		tfLinkOccupancy: pedf.TFLinkOccupancy, tfFilterLine: pedf.TFFilterLine,
		tfFilterBlocked: pedf.TFFilterBlocked,
	}
	for mine, theirs := range pairs {
		if mine != theirs {
			t.Errorf("symbol drift: core %q vs pedf %q", mine, theirs)
		}
	}
	if envActorName != pedf.EnvActor {
		t.Error("env actor name drift")
	}
}

// ---- graph reconstruction (contribution #1) ----

func TestGraphReconstruction(t *testing.T) {
	h := newHarness(t, 2, feedN(2))
	h.boot(t)
	// Actors: module m, red, pipe, controller, env.
	if a := h.d.Actor("m"); a == nil || a.Kind != KindModule {
		t.Fatalf("module actor = %v", a)
	}
	if a := h.d.Actor("red"); a == nil || a.Kind != KindFilter || a.Module != "m" {
		t.Fatalf("red = %v", a)
	}
	if a := h.d.Actor("m_controller"); a == nil || a.Kind != KindController {
		t.Fatalf("controller = %v", a)
	}
	if a := h.d.Actor("env"); a == nil || a.Kind != KindEnv {
		t.Fatalf("env = %v", a)
	}
	// Connections.
	red := h.d.Actor("red")
	if len(red.Inputs) != 1 || len(red.Outputs) != 2 {
		t.Errorf("red connections = %d in / %d out", len(red.Inputs), len(red.Outputs))
	}
	if _, err := h.d.Connection("pipe::a_in"); err != nil {
		t.Error(err)
	}
	if _, err := h.d.Connection("nope::x"); err == nil {
		t.Error("bogus connection resolved")
	}
	// Links: red->pipe x2, env->red, pipe->env.
	if len(h.d.Links()) != 4 {
		t.Errorf("links = %d, want 4", len(h.d.Links()))
	}
	mi := h.d.Module("m")
	if mi == nil || len(mi.Filters) != 2 {
		t.Fatalf("module info = %+v", mi)
	}
	// Autocompletion knows the entities.
	names := h.d.Complete("pipe")
	joined := strings.Join(names, " ")
	for _, want := range []string{"pipe", "pipe::a_in", "pipe::b_in", "pipe::out"} {
		if !strings.Contains(joined, want) {
			t.Errorf("completion missing %q: %v", want, names)
		}
	}
}

func TestGraphDOTRendering(t *testing.T) {
	h := newHarness(t, 2, feedN(2))
	h.boot(t)
	out := h.d.GraphDOT()
	for _, frag := range []string{
		`"m_controller" [label="m_controller", shape=box, style=filled, fillcolor="palegreen"];`,
		`"red" [label="red", shape=ellipse];`,
		`"red" -> "pipe";`,
		`"env" -> "red" [style=dashed];`,
		`label="m";`,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, out)
		}
	}
}

// ---- catchpoints ----

func TestCatchWork(t *testing.T) {
	h := newHarness(t, 2, feedN(2))
	h.boot(t)
	c, err := h.d.CatchWorkOf("pipe")
	if err != nil {
		t.Fatal(err)
	}
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopBreakpoint {
		t.Fatalf("stop = %v", ev)
	}
	if !strings.Contains(ev.Reason, "pipe work method triggered") {
		t.Errorf("reason = %q", ev.Reason)
	}
	if c.workBp.HitCount != 1 {
		t.Errorf("hits = %d", c.workBp.HitCount)
	}
	// Deleting the catchpoint removes the underlying breakpoint.
	if err := h.d.DeleteCatch(c.ID); err != nil {
		t.Fatal(err)
	}
	if ev = h.low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("after delete: %v", ev)
	}
	if _, err := h.d.CatchWorkOf("ghost"); err == nil {
		t.Error("CatchWorkOf(ghost) succeeded")
	}
}

// A work catchpoint counts its stops like every other catchpoint, so
// `catchpoints` agrees with the hit count `info breakpoints` shows.
func TestCatchWorkCountsStops(t *testing.T) {
	h := newHarness(t, 2, feedN(2))
	h.boot(t)
	c, err := h.d.CatchWorkOf("pipe")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if ev := h.low.Continue(); ev.Kind != lowdbg.StopBreakpoint {
			t.Fatalf("stop %d = %v", i+1, ev)
		}
	}
	if c.Hits != 2 || c.workBp.HitCount != 2 {
		t.Errorf("catchpoint hits = %d, breakpoint hits = %d, want 2 and 2", c.Hits, c.workBp.HitCount)
	}
	if !strings.Contains(c.String(), "hits=2") {
		t.Errorf("catchpoint = %q, want hits=2", c)
	}
}

func TestCatchTokensExplicit(t *testing.T) {
	h := newHarness(t, 2, feedN(2))
	h.boot(t)
	// The paper's command ①: stop when pipe received one token on each
	// inbound interface.
	c, err := h.d.CatchTokensOf("pipe", map[string]uint64{"a_in": 1, "b_in": 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != CatchReceive || c.Spec != "a_in=1,b_in=1" {
		t.Errorf("catchpoint = %v", c)
	}
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopAction {
		t.Fatalf("stop = %v", ev)
	}
	if !strings.Contains(ev.Reason, "Stopped after receiving token from `pipe::") {
		t.Errorf("reason = %q", ev.Reason)
	}
	pipe := h.d.Actor("pipe")
	if pipe.In("a_in").Received < 1 || pipe.In("b_in").Received < 1 {
		t.Error("stopped before both tokens arrived")
	}
	// Re-armed: fires again for the second step's pair.
	ev = h.low.Continue()
	if ev.Kind != lowdbg.StopAction {
		t.Fatalf("second stop = %v", ev)
	}
	if c.Hits != 2 {
		t.Errorf("hits = %d, want 2", c.Hits)
	}
}

func TestCatchTokensWildcard(t *testing.T) {
	h := newHarness(t, 1, feedN(1))
	h.boot(t)
	// The paper's command ②: `filter pipe catch *in=1`.
	c, err := h.d.CatchTokensOf("pipe", map[string]uint64{"*in": 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.conds) != 2 {
		t.Fatalf("wildcard expanded to %d conds, want 2", len(c.conds))
	}
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopAction {
		t.Fatalf("stop = %v", ev)
	}
}

func TestCatchTokensErrors(t *testing.T) {
	h := newHarness(t, 1, feedN(1))
	h.boot(t)
	if _, err := h.d.CatchTokensOf("ghost", map[string]uint64{"x": 1}); err == nil {
		t.Error("unknown actor accepted")
	}
	if _, err := h.d.CatchTokensOf("pipe", nil); err == nil {
		t.Error("empty conds accepted")
	}
	if _, err := h.d.CatchTokensOf("pipe", map[string]uint64{"nope": 1}); err == nil {
		t.Error("unknown interface accepted")
	}
	if _, err := h.d.CatchTokensOf("pipe", map[string]uint64{"a_in": 1, "out": 1}); err == nil {
		t.Error("mixed-direction conds accepted")
	}
	if _, err := h.d.CatchTokensOf("env", map[string]uint64{"*out": 1}); err == nil {
		// env has one output in this app; make sure the error path for
		// actors with no inputs triggers instead on *in.
		t.Log("env *out accepted (has outputs), fine")
	}
	if _, err := h.d.CatchTokensOf("red", map[string]uint64{"*out": 0}); err != nil {
		t.Error("zero count should default to 1:", err)
	}
}

func TestCatchSend(t *testing.T) {
	h := newHarness(t, 1, feedN(1))
	h.boot(t)
	if _, err := h.d.CatchTokensOf("red", map[string]uint64{"b_out": 1}); err != nil {
		t.Fatal(err)
	}
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopAction ||
		!strings.Contains(ev.Reason, "Stopped after sending token on `red::b_out'") {
		t.Fatalf("stop = %v", ev)
	}
}

func TestCatchContent(t *testing.T) {
	h := newHarness(t, 3, feedN(3))
	h.boot(t)
	// Stop when pipe::a_in carries value 21 (= 20 + 1 from red).
	_, err := h.d.CatchContentOf("pipe::a_in", "== 21", func(v filterc.Value) bool {
		return v.IsScalar() && v.I == 21
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopAction || !strings.Contains(ev.Reason, "token content matched") {
		t.Fatalf("stop = %v", ev)
	}
	pipe := h.d.Actor("pipe")
	if tok := pipe.In("a_in").LastToken(); tok.Hop.Val.I != 21 {
		t.Errorf("last token = %v", tok.Hop.Val)
	}
}

func TestCatchStepAndScheduled(t *testing.T) {
	h := newHarness(t, 3, feedN(3))
	h.boot(t)
	cs, err := h.d.CatchStepOf("m", false)
	if err != nil {
		t.Fatal(err)
	}
	// Note: step 0 began during boot (t=0), so the first catch is step 1.
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopAction || !strings.Contains(ev.Reason, "beginning of step 1") {
		t.Fatalf("stop = %v", ev)
	}
	if err := h.d.DeleteCatch(cs.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := h.d.CatchStepOf("m", true); err != nil {
		t.Fatal(err)
	}
	ev = h.low.Continue()
	if ev.Kind != lowdbg.StopAction || !strings.Contains(ev.Reason, "end of step 1") {
		t.Fatalf("stop = %v", ev)
	}
	if _, err := h.d.CatchStepOf("ghost", false); err == nil {
		t.Error("unknown module accepted")
	}
	// Scheduled catch.
	if _, err := h.d.CatchScheduledOf("red"); err != nil {
		t.Fatal(err)
	}
	ev = h.low.Continue()
	if ev.Kind != lowdbg.StopAction || !strings.Contains(ev.Reason, "scheduled filter `red'") {
		t.Fatalf("stop = %v", ev)
	}
	if _, err := h.d.CatchScheduledOf("ghost"); err == nil {
		t.Error("unknown filter accepted")
	}
}

func TestCatchpointListing(t *testing.T) {
	h := newHarness(t, 1, feedN(1))
	h.boot(t)
	c1, _ := h.d.CatchTokensOf("pipe", map[string]uint64{"a_in": 1})
	c2, _ := h.d.CatchStepOf("m", false)
	list := h.d.Catchpoints()
	if len(list) != 2 || list[0] != c1 || list[1] != c2 {
		t.Fatalf("list = %v", list)
	}
	if !strings.Contains(c1.String(), "receive pipe a_in=1") {
		t.Errorf("string = %q", c1.String())
	}
	if err := h.d.DeleteCatch(999); err == nil {
		t.Error("deleting unknown catchpoint succeeded")
	}
}

// ---- token flow (contribution #3) ----

func TestOccupancyReconstructionMatchesFramework(t *testing.T) {
	h := newHarness(t, 4, feedN(4))
	h.boot(t)
	// Stop a few times mid-flight and verify model == framework.
	if _, err := h.d.CatchTokensOf("pipe", map[string]uint64{"a_in": 1}); err != nil {
		t.Fatal(err)
	}
	stops := 0
	for {
		ev := h.low.Continue()
		if ev.Kind == lowdbg.StopDone {
			break
		}
		if ev.Kind == lowdbg.StopError {
			t.Fatalf("error: %v", ev.Err)
		}
		stops++
		bad, err := h.d.VerifyOccupancy()
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) > 0 {
			t.Fatalf("occupancy mismatch at stop %d: %v", stops, bad)
		}
	}
	if stops != 4 {
		t.Errorf("stops = %d, want 4", stops)
	}
	// Totals match too.
	for _, l := range h.d.Links() {
		if l.TotalPushed == 0 {
			t.Errorf("link %v saw no pushes", l)
		}
		if l.TotalPushed != l.TotalPopped+uint64(l.Occupancy()) {
			t.Errorf("token conservation violated on %v", l)
		}
	}
}

func TestRecording(t *testing.T) {
	h := newHarness(t, 3, feedN(3))
	h.boot(t)
	if err := h.d.SetRecording("red::a_out", true); err != nil {
		t.Fatal(err)
	}
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopDone {
		t.Fatalf("stop = %v", ev)
	}
	out, err := h.d.FormatRecorded("red::a_out")
	if err != nil {
		t.Fatal(err)
	}
	want := "#1 (U32) 11\n#2 (U32) 21\n#3 (U32) 31\n"
	if out != want {
		t.Errorf("recorded =\n%s\nwant\n%s", out, want)
	}
	// Turning recording off clears the history.
	if err := h.d.SetRecording("red::a_out", false); err != nil {
		t.Fatal(err)
	}
	toks, _ := h.d.RecordedTokens("red::a_out")
	if len(toks) != 0 {
		t.Error("history not cleared")
	}
	if err := h.d.SetRecording("ghost::x", true); err == nil {
		t.Error("recording on unknown interface accepted")
	}
}

func TestRecordingCapBounded(t *testing.T) {
	h := newHarness(t, 8, feedN(8))
	h.boot(t)
	conn, _ := h.d.Connection("red::a_out")
	conn.RecordCap = 3
	conn.Recording = true
	if ev := h.low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatal("did not finish")
	}
	toks, err := h.d.RecordedTokens("red::a_out")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 {
		t.Fatalf("recorded = %d, want 3 (bounded)", len(toks))
	}
	// The survivors are the three most recent.
	if toks[2].Hop.Val.I != 81 {
		t.Errorf("last recorded = %v", toks[2].Hop.Val)
	}
}

func TestLastTokenPathWithSplitter(t *testing.T) {
	h := newHarness(t, 2, feedN(2))
	h.boot(t)
	// The paper's flow: configure red as a splitter, stop when pipe
	// receives, then walk the token's path.
	if err := h.d.ConfigureBehavior("red", BehaviorSplitter); err != nil {
		t.Fatal(err)
	}
	if _, err := h.d.CatchTokensOf("pipe", map[string]uint64{"a_in": 1}); err != nil {
		t.Fatal(err)
	}
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopAction {
		t.Fatalf("stop = %v", ev)
	}
	tok, err := h.d.LastToken("pipe")
	if err != nil {
		t.Fatal(err)
	}
	path := tok.Path()
	if len(path) != 2 {
		t.Fatalf("path = %v, want 2 hops", path)
	}
	if path[0].From != "red" || path[0].To != "pipe" || path[0].Val.I != 11 {
		t.Errorf("hop 1 = %v", path[0])
	}
	if path[1].From != "env" || path[1].To != "red" || path[1].Val.I != 10 {
		t.Errorf("hop 2 = %v", path[1])
	}
	formatted := tok.FormatPath()
	if !strings.Contains(formatted, "#1 red -> pipe (U32) 11") ||
		!strings.Contains(formatted, "#2 env -> red (U32) 10") {
		t.Errorf("formatted path:\n%s", formatted)
	}
}

func TestLastTokenWithoutBehaviorHasSingleHop(t *testing.T) {
	h := newHarness(t, 1, feedN(1))
	h.boot(t)
	if _, err := h.d.CatchTokensOf("pipe", map[string]uint64{"a_in": 1}); err != nil {
		t.Fatal(err)
	}
	if ev := h.low.Continue(); ev.Kind != lowdbg.StopAction {
		t.Fatalf("stop = %v", ev)
	}
	tok, err := h.d.LastToken("pipe")
	if err != nil {
		t.Fatal(err)
	}
	if len(tok.Path()) != 1 {
		t.Errorf("path without behavior = %d hops, want 1", len(tok.Path()))
	}
	if _, err := h.d.LastToken("ghost"); err == nil {
		t.Error("unknown actor accepted")
	}
	if err := h.d.ConfigureBehavior("ghost", BehaviorMap); err == nil {
		t.Error("behavior on unknown actor accepted")
	}
}

func TestParseBehavior(t *testing.T) {
	for s, want := range map[string]Behavior{
		"map": BehaviorMap, "splitter": BehaviorSplitter,
		"joiner": BehaviorJoiner, "unknown": BehaviorUnknown,
	} {
		b, err := ParseBehavior(s)
		if err != nil || b != want {
			t.Errorf("ParseBehavior(%q) = %v, %v", s, b, err)
		}
	}
	if _, err := ParseBehavior("bogus"); err == nil {
		t.Error("bogus behavior accepted")
	}
}

// ---- step_both ----

func TestStepBothExplicit(t *testing.T) {
	h := newHarness(t, 1, feedN(1))
	h.boot(t)
	if err := h.d.StepBoth("red::a_out"); err != nil {
		t.Fatal(err)
	}
	logs := strings.Join(h.d.DrainLog(), "\n")
	if !strings.Contains(logs, "Temporary breakpoint inserted after input interface `pipe::a_in'") ||
		!strings.Contains(logs, "Temporary breakpoint inserted after output interface `red::a_out'") {
		t.Errorf("announcements:\n%s", logs)
	}
	// Two stops, one per end, order execution-dependent.
	var reasons []string
	for i := 0; i < 2; i++ {
		ev := h.low.Continue()
		if ev.Kind != lowdbg.StopAction {
			t.Fatalf("stop %d = %v", i, ev)
		}
		reasons = append(reasons, ev.Reason)
	}
	joined := strings.Join(reasons, "\n")
	if !strings.Contains(joined, "Stopped after sending token on `red::a_out'") ||
		!strings.Contains(joined, "Stopped after receiving token from `pipe::a_in'") {
		t.Errorf("reasons:\n%s", joined)
	}
	// One-shot: the program then runs to completion.
	if ev := h.low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("final = %v", ev)
	}
	if len(h.d.Catchpoints()) != 0 {
		t.Errorf("one-shot catchpoints not removed: %v", h.d.Catchpoints())
	}
}

func TestStepBothErrors(t *testing.T) {
	h := newHarness(t, 1, feedN(1))
	h.boot(t)
	if err := h.d.StepBoth("pipe::a_in"); err == nil {
		t.Error("step_both on input accepted")
	}
	if err := h.d.StepBoth("ghost::x"); err == nil {
		t.Error("step_both on unknown interface accepted")
	}
}

func TestStepBothAuto(t *testing.T) {
	h := newHarness(t, 1, feedN(1))
	h.boot(t)
	// Stop right before red's dataflow assignment (line 4 of red.c).
	if _, err := h.low.BreakLine("red.c", 4); err != nil {
		t.Fatal(err)
	}
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopBreakpoint {
		t.Fatalf("stop = %v", ev)
	}
	if err := h.d.StepBothAuto(ev); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for {
		ev = h.low.Continue()
		if ev.Kind == lowdbg.StopDone {
			break
		}
		if ev.Kind != lowdbg.StopAction {
			t.Fatalf("stop = %v", ev)
		}
		seen++
	}
	if seen != 2 {
		t.Errorf("step_both stops = %d, want 2", seen)
	}
}

func TestStepBothAutoErrors(t *testing.T) {
	h := newHarness(t, 1, feedN(1))
	h.boot(t)
	if err := h.d.StepBothAuto(nil); err == nil {
		t.Error("nil event accepted")
	}
	if err := h.d.StepBothAuto(&lowdbg.StopEvent{}); err == nil {
		t.Error("event without proc accepted")
	}
	// Stopped at a non-dataflow line.
	if _, err := h.low.BreakLine("pipe.c", 2); err != nil {
		t.Fatal(err)
	}
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopBreakpoint {
		t.Fatalf("stop = %v", ev)
	}
	// Line 2 reads pedf.io.a_in — an *input*, so auto inference must
	// reject it as not-an-output.
	if err := h.d.StepBothAuto(ev); err == nil {
		t.Error("input reference accepted as dataflow assignment")
	}
}

// ---- execution alteration ----

func TestInjectUntiesDeadlock(t *testing.T) {
	// Feed one token fewer than the controller expects: the app stalls,
	// then the debugger injects the missing token and execution finishes.
	h := newHarness(t, 2, feedN(1))
	h.boot(t)
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopDone || ev.Deadlock == nil {
		t.Fatalf("expected deadlock, got %v", ev)
	}
	// red is blocked popping bh_in; the model knows.
	red := h.d.Actor("red")
	if red.BlockedOn() != "pop:bh_in" {
		t.Errorf("red blocked on %q", red.BlockedOn())
	}
	infos := h.d.InfoFilters()
	var redInfo *FilterInfo
	for i := range infos {
		if infos[i].Name == "red" {
			redInfo = &infos[i]
		}
	}
	if redInfo == nil || redInfo.BlockedOn != "pop:bh_in" || redInfo.Line != 2 {
		t.Errorf("info = %+v", redInfo)
	}
	if err := h.d.InjectToken("red::bh_in", u32v(77)); err != nil {
		t.Fatal(err)
	}
	ev = h.low.Continue()
	if ev.Kind != lowdbg.StopDone || ev.Deadlock != nil {
		t.Fatalf("after injection: %v (deadlock %v)", ev, ev.Deadlock)
	}
	if len(h.col.Values) != 2 {
		t.Fatalf("outputs = %d, want 2", len(h.col.Values))
	}
	if h.col.Values[1].I != 78*100+79 {
		t.Errorf("second output = %d, want %d", h.col.Values[1].I, 78*100+79)
	}
}

func TestReplaceAndDropAndPeek(t *testing.T) {
	h := newHarness(t, 1, feedN(1))
	h.boot(t)
	// Stop before red consumes, while the env token sits on the link.
	if _, err := h.d.CatchTokensOf("red", map[string]uint64{"bh_in": 1}); err != nil {
		t.Fatal(err)
	}
	// Inject two extra tokens then manipulate them before anything runs.
	if err := h.d.InjectToken("red::bh_in", u32v(500)); err != nil {
		t.Fatal(err)
	}
	if err := h.d.InjectToken("red::bh_in", u32v(600)); err != nil {
		t.Fatal(err)
	}
	conn, _ := h.d.Connection("red::bh_in")
	occBefore := conn.Link.Occupancy()
	if err := h.d.DropToken("red::bh_in", occBefore-1); err != nil {
		t.Fatal(err)
	}
	if err := h.d.ReplaceToken("red::bh_in", occBefore-2, u32v(999)); err != nil {
		t.Fatal(err)
	}
	v, err := h.d.PeekToken("red::bh_in", occBefore-2)
	if err != nil || v.I != 999 {
		t.Fatalf("peek = %v %v", v, err)
	}
	if bad, err := h.d.VerifyOccupancy(); err != nil || len(bad) > 0 {
		t.Fatalf("occupancy diverged: %v %v", bad, err)
	}
	if err := h.d.DropToken("red::bh_in", 42); err == nil {
		t.Error("dropping missing token succeeded")
	}
	if err := h.d.InjectToken("ghost::x", u32v(0)); err == nil {
		t.Error("injecting on unknown interface succeeded")
	}
}

// ---- scheduling and token reports ----

func TestSchedulingReport(t *testing.T) {
	h := newHarness(t, 2, feedN(2))
	h.boot(t)
	if _, err := h.d.CatchTokensOf("pipe", map[string]uint64{"a_in": 1}); err != nil {
		t.Fatal(err)
	}
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopAction {
		t.Fatalf("stop = %v", ev)
	}
	rep, err := h.d.SchedulingReport("m")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "module m: step") {
		t.Errorf("report:\n%s", rep)
	}
	if !strings.Contains(rep, "red") || !strings.Contains(rep, "pipe") {
		t.Errorf("report missing filters:\n%s", rep)
	}
	if _, err := h.d.SchedulingReport("ghost"); err == nil {
		t.Error("unknown module accepted")
	}
	// After completion the module is done.
	for ev.Kind != lowdbg.StopDone {
		ev = h.low.Continue()
	}
	rep, _ = h.d.SchedulingReport("m")
	if !strings.Contains(rep, "(done)") {
		t.Errorf("report should show done:\n%s", rep)
	}
}

func TestTokensReport(t *testing.T) {
	h := newHarness(t, 2, feedN(2))
	h.boot(t)
	if ev := h.low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatal("did not finish")
	}
	rep := h.d.TokensReport()
	if !strings.Contains(rep, "red::a_out -> pipe::a_in") ||
		!strings.Contains(rep, "pushed=2") {
		t.Errorf("report:\n%s", rep)
	}
}

// ---- mitigation option 1: disabled data breakpoints ----

func TestDisabledDataBreakpointsKeepControlAlive(t *testing.T) {
	h := newHarness(t, 2, feedN(2))
	h.boot(t)
	h.low.DataBreakpointsEnabled = false
	before := h.d.DataEvents
	// Step catchpoints (control plane) still work.
	if _, err := h.d.CatchStepOf("m", false); err != nil {
		t.Fatal(err)
	}
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopAction {
		t.Fatalf("step catch did not fire with data bps disabled: %v", ev)
	}
	if h.d.DataEvents != before {
		t.Errorf("data events observed while disabled: %d -> %d", before, h.d.DataEvents)
	}
}

func TestFreezeActorBlocksOnePath(t *testing.T) {
	// The paper's Section III: block one execution path (pipe) while the
	// rest of the application keeps running; tokens accumulate on pipe's
	// inputs; thaw and the application completes normally.
	h := newHarness(t, 4, feedN(4))
	h.boot(t)
	if err := h.d.FreezeActor("pipe"); err == nil {
		t.Fatal("freeze before pipe has an execution context should fail")
	}
	// Stop once at pipe's work so the context is learned.
	c, err := h.d.CatchWorkOf("pipe")
	if err != nil {
		t.Fatal(err)
	}
	if ev := h.low.Continue(); ev.Kind != lowdbg.StopBreakpoint {
		t.Fatal("no stop at pipe")
	}
	if err := h.d.DeleteCatch(c.ID); err != nil {
		t.Fatal(err)
	}
	if err := h.d.FreezeActor("pipe"); err != nil {
		t.Fatal(err)
	}
	h.d.DrainLog()
	// With pipe frozen the run stalls: red keeps producing until the
	// controller blocks on WAIT_FOR_ACTOR_SYNC for pipe.
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopDone {
		t.Fatalf("stop = %v", ev)
	}
	conn, _ := h.d.Connection("pipe::a_in")
	if conn.Link.Occupancy() == 0 {
		t.Error("no tokens accumulated while pipe was frozen")
	}
	// Release the path: the application completes.
	if err := h.d.ThawActor("pipe"); err != nil {
		t.Fatal(err)
	}
	ev = h.low.Continue()
	if ev.Kind != lowdbg.StopDone || ev.Deadlock != nil {
		t.Fatalf("after thaw: %v (deadlock %v)", ev, ev.Deadlock)
	}
	if len(h.col.Values) != 4 {
		t.Errorf("outputs = %d, want 4", len(h.col.Values))
	}
	if err := h.d.FreezeActor("ghost"); err == nil {
		t.Error("freezing unknown actor accepted")
	}
	if err := h.d.ThawActor("ghost"); err == nil {
		t.Error("thawing unknown actor accepted")
	}
}

func TestCatchWhenCondition(t *testing.T) {
	h := newHarness(t, 4, feedN(4))
	h.boot(t)
	// Stop when red has pushed at least 3 tokens on a_out (a condition
	// over the reconstructed model, not a single interface count).
	h.d.CatchWhen("sent(red::a_out) >= 3", func(d *Debugger) bool {
		conn, err := d.Connection("red::a_out")
		return err == nil && conn.Sent >= 3
	})
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopAction || !strings.Contains(ev.Reason, "condition sent(red::a_out) >= 3") {
		t.Fatalf("stop = %v", ev)
	}
	conn, _ := h.d.Connection("red::a_out")
	if conn.Sent < 3 {
		t.Errorf("stopped with sent=%d", conn.Sent)
	}
}

func TestModelAccessorsAndStrings(t *testing.T) {
	h := newHarness(t, 2, feedN(2))
	h.boot(t)
	if len(h.d.Actors()) < 4 {
		t.Errorf("Actors = %d", len(h.d.Actors()))
	}
	if len(h.d.Modules()) != 1 || h.d.Modules()[0].Actor.Name != "m" {
		t.Errorf("Modules = %v", h.d.Modules())
	}
	red := h.d.Actor("red")
	if !strings.Contains(red.String(), "filter red") {
		t.Errorf("actor string = %q", red.String())
	}
	conn, _ := h.d.Connection("red::a_out")
	if !strings.Contains(conn.String(), "red::a_out (output") {
		t.Errorf("conn string = %q", conn.String())
	}
	if !strings.Contains(conn.Link.String(), "red::a_out -> pipe::a_in") {
		t.Errorf("link string = %q", conn.Link.String())
	}
	if BehaviorMap.String() != "map" || BehaviorUnknown.String() != "unknown" {
		t.Error("behavior strings wrong")
	}
	// Learn proc mapping after a stop.
	if _, err := h.d.CatchWorkOf("red"); err != nil {
		t.Fatal(err)
	}
	ev := h.low.Continue()
	if ev.Kind != lowdbg.StopBreakpoint {
		t.Fatalf("stop = %v", ev)
	}
	if h.d.ActorForProc(ev.Proc) != red {
		t.Error("ActorForProc wrong")
	}
	if tok := red.LastToken(); tok != nil && tok.Hop.To != "red" {
		t.Errorf("red's last token = %v", tok)
	}
	hop := Hop{From: "a", To: "b", Type: "U32", Val: u32v(5)}
	if hop.String() != "a -> b (U32) 5" {
		t.Errorf("hop string = %q", hop.String())
	}
}

func TestSetCatchEnabled(t *testing.T) {
	h := newHarness(t, 2, feedN(2))
	h.boot(t)
	c, err := h.d.CatchWorkOf("pipe")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.d.SetCatchEnabled(c.ID, false); err != nil {
		t.Fatal(err)
	}
	if ev := h.low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("disabled work catch stopped: %v", ev)
	}
	if err := h.d.SetCatchEnabled(c.ID, true); err != nil {
		t.Fatal(err)
	}
	if err := h.d.SetCatchEnabled(999, true); err == nil {
		t.Error("unknown catchpoint accepted")
	}
}

func TestPeekTokenErrors(t *testing.T) {
	h := newHarness(t, 1, feedN(1))
	h.boot(t)
	if _, err := h.d.PeekToken("ghost::x", 0); err == nil {
		t.Error("unknown interface accepted")
	}
	if _, err := h.d.PeekToken("red::bh_in", 7); err == nil {
		t.Error("out-of-range peek accepted")
	}
}

func TestStateStrings(t *testing.T) {
	if SchedIdle.String() != "not scheduled" || SchedScheduled.String() != "ready" ||
		SchedRunning.String() != "running" || SchedSynced.String() != "finished step" {
		t.Error("SchedState strings wrong")
	}
	if KindFilter.String() != "filter" || KindController.String() != "controller" ||
		KindModule.String() != "module" || KindEnv.String() != "env" {
		t.Error("ActorKind strings wrong")
	}
	for _, k := range []CatchKind{CatchWork, CatchReceive, CatchSend, CatchContent,
		CatchStepBegin, CatchStepEnd, CatchScheduled} {
		if strings.Contains(k.String(), "CatchKind(") {
			t.Errorf("missing string for %d", int(k))
		}
	}
}
