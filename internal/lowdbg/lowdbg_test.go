package lowdbg

import (
	"strings"
	"testing"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/sim"
)

// harness bundles a kernel, a debugger and a filterc target program.
type harness struct {
	k   *sim.Kernel
	d   *Debugger
	in  *filterc.Interp
	p   *sim.Proc
	env *fakeEnv
}

type fakeEnv struct {
	data map[string]*filterc.Value
}

func (e *fakeEnv) IORead(iface string, idx int64) (filterc.Value, error) {
	return filterc.Int(filterc.U32, 7), nil
}
func (e *fakeEnv) IOWrite(iface string, idx int64, v filterc.Value) error { return nil }
func (e *fakeEnv) DataRef(name string) (*filterc.Value, error) {
	if v, ok := e.data[name]; ok {
		return v, nil
	}
	zero := filterc.Int(filterc.U32, 0)
	e.data[name] = &zero
	return e.data[name], nil
}
func (e *fakeEnv) AttrRef(name string) (*filterc.Value, error) { return e.DataRef(name) }
func (e *fakeEnv) Intrinsic(name string, args []filterc.Value) (filterc.Value, bool, error) {
	return filterc.Value{}, false, nil
}

// newHarness builds a target running src's work() once under the debugger.
func newHarness(t *testing.T, src string) *harness {
	t.Helper()
	k := sim.NewKernel()
	syms := dbginfo.NewTable()
	prog, err := filterc.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	lt := syms.LineTableFor("t.c")
	for _, sl := range prog.StmtLines() {
		lt.AddStmt(sl.Line, sl.Func)
	}
	d := New(k, syms)
	d.AddSource("t.c", src)
	env := &fakeEnv{data: make(map[string]*filterc.Value)}
	in := filterc.New(prog, env)
	h := &harness{k: k, d: d, in: in, env: env}
	h.p = k.Spawn("target", func(p *sim.Proc) {
		exit := d.EnterFunc(p, "work_symbol", []Arg{StrArg("self", "target")})
		_, err := in.CallFunc("work", nil)
		if exit != nil {
			exit(Datum{})
		}
		if err != nil {
			panic(err)
		}
	})
	d.AttachInterp(h.p, in)
	return h
}

const countSrc = `void work() {
	u32 i = 0;
	while (i < 5) {
		pedf.data.count = pedf.data.count + 1;
		i = i + 1;
	}
}`

func TestRunToCompletion(t *testing.T) {
	h := newHarness(t, countSrc)
	ev := h.d.Continue()
	if ev.Kind != StopDone {
		t.Fatalf("stop = %v, want done", ev)
	}
	if v, _ := h.env.DataRef("count"); v.I != 5 {
		t.Errorf("count = %d, want 5", v.I)
	}
}

func TestFunctionBreakpointStops(t *testing.T) {
	h := newHarness(t, countSrc)
	h.d.Syms.MustDefine(dbginfo.Symbol{Name: "work_symbol", Kind: dbginfo.SymFunc})
	bp, err := h.d.BreakFunc("work_symbol")
	if err != nil {
		t.Fatal(err)
	}
	ev := h.d.Continue()
	if ev.Kind != StopBreakpoint || ev.Bp != bp {
		t.Fatalf("stop = %v", ev)
	}
	if ev.Fn != "work_symbol" || ArgString(ev.Args, "self") != "target" {
		t.Errorf("stop details wrong: fn=%q args=%v", ev.Fn, ev.Args)
	}
	if bp.HitCount != 1 {
		t.Errorf("hit count = %d", bp.HitCount)
	}
	if ev = h.d.Continue(); ev.Kind != StopDone {
		t.Fatalf("second stop = %v, want done", ev)
	}
}

func TestBreakFuncUnknownSymbolRejected(t *testing.T) {
	h := newHarness(t, countSrc)
	if _, err := h.d.BreakFunc("no_such_symbol"); err == nil {
		t.Error("BreakFunc on unknown symbol succeeded")
	}
}

func TestInternalBreakpointActionRunsWithoutStopping(t *testing.T) {
	h := newHarness(t, countSrc)
	var seen []string
	h.d.BreakFuncInternal("work_symbol", func(ctx *StopCtx) Disposition {
		seen = append(seen, ArgString(ctx.Args, "self"))
		return DispContinue
	}, nil)
	ev := h.d.Continue()
	if ev.Kind != StopDone {
		t.Fatalf("stop = %v, want done", ev)
	}
	if len(seen) != 1 || seen[0] != "target" {
		t.Errorf("action saw %v", seen)
	}
}

func TestFinishBreakpointSeesReturnValue(t *testing.T) {
	h := newHarness(t, countSrc)
	var got Datum
	h.d.BreakFuncInternal("work_symbol",
		func(ctx *StopCtx) Disposition { return DispContinue },
		func(ctx *StopCtx) Disposition {
			got = ctx.Ret
			if !ctx.IsReturn {
				t.Error("finish ctx not marked IsReturn")
			}
			return DispContinue
		})
	if ev := h.d.Continue(); ev.Kind != StopDone {
		t.Fatalf("stop = %v", ev)
	}
	if got.Kind != NoDatum {
		t.Errorf("ret = %v, want none", got)
	}
}

func TestConditionFiltersBreakpoint(t *testing.T) {
	h := newHarness(t, countSrc)
	h.d.Syms.MustDefine(dbginfo.Symbol{Name: "work_symbol", Kind: dbginfo.SymFunc})
	bp, _ := h.d.BreakFunc("work_symbol")
	bp.Condition = func(ctx *StopCtx) bool { return ArgString(ctx.Args, "self") == "other" }
	if ev := h.d.Continue(); ev.Kind != StopDone {
		t.Fatalf("stop = %v, want done (condition false)", ev)
	}
	if bp.HitCount != 0 {
		t.Errorf("hit count = %d, want 0 (condition gates counting)", bp.HitCount)
	}
}

func TestDataBreakpointGating(t *testing.T) {
	h := newHarness(t, countSrc)
	hits := 0
	bp := h.d.BreakFuncInternal("work_symbol", func(ctx *StopCtx) Disposition {
		hits++
		return DispContinue
	}, nil)
	bp.IsData = true
	h.d.DataBreakpointsEnabled = false
	if ev := h.d.Continue(); ev.Kind != StopDone {
		t.Fatalf("stop = %v", ev)
	}
	if hits != 0 {
		t.Errorf("data breakpoint fired %d times while disabled", hits)
	}
}

func TestLineBreakpointAndResume(t *testing.T) {
	h := newHarness(t, countSrc)
	// Line 4 is the pedf.data.count assignment inside the loop.
	bp, err := h.d.BreakLine("t.c", 4)
	if err != nil {
		t.Fatal(err)
	}
	stops := 0
	for {
		ev := h.d.Continue()
		if ev.Kind == StopDone {
			break
		}
		if ev.Kind != StopBreakpoint || ev.Pos.Line != 4 {
			t.Fatalf("stop = %v", ev)
		}
		stops++
		if stops > 10 {
			t.Fatal("too many stops")
		}
	}
	if stops != 5 {
		t.Errorf("stops = %d, want 5", stops)
	}
	if bp.HitCount != 5 {
		t.Errorf("hits = %d, want 5", bp.HitCount)
	}
}

func TestLineBreakpointSlidesForward(t *testing.T) {
	h := newHarness(t, countSrc)
	bp, err := h.d.BreakLine("t.c", 1) // line 1 is the signature
	if err != nil {
		t.Fatal(err)
	}
	if bp.Line != 2 {
		t.Errorf("breakpoint slid to %d, want 2", bp.Line)
	}
	if _, err := h.d.BreakLine("t.c", 99); err == nil {
		t.Error("BreakLine past EOF succeeded")
	}
}

func TestTemporaryLineBreakpoint(t *testing.T) {
	h := newHarness(t, countSrc)
	bp, err := h.d.BreakLineTemporary("t.c", 4)
	if err != nil {
		t.Fatal(err)
	}
	ev := h.d.Continue()
	if ev.Kind != StopBreakpoint {
		t.Fatalf("stop = %v", ev)
	}
	if len(h.d.Breakpoints()) != 0 {
		t.Errorf("temporary breakpoint still listed: %v", h.d.Breakpoints())
	}
	_ = bp
	if ev = h.d.Continue(); ev.Kind != StopDone {
		t.Fatalf("second stop = %v, want done", ev)
	}
}

func TestStepThroughStatements(t *testing.T) {
	h := newHarness(t, countSrc)
	if _, err := h.d.BreakLine("t.c", 2); err != nil {
		t.Fatal(err)
	}
	ev := h.d.Continue()
	if ev.Kind != StopBreakpoint || ev.Pos.Line != 2 {
		t.Fatalf("initial stop = %v", ev)
	}
	var lines []int
	for i := 0; i < 4; i++ {
		ev = h.d.Step(h.p)
		if ev.Kind != StopStep {
			t.Fatalf("step %d: %v", i, ev)
		}
		lines = append(lines, ev.Pos.Line)
	}
	// From decl@2: while@3, assign@4, incr@5, while@3.
	want := []int{3, 4, 5, 3}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("step lines = %v, want %v", lines, want)
		}
	}
}

const callSrc = `u32 helper(u32 x) {
	u32 y = x * 2;
	return y;
}
void work() {
	u32 a = helper(3);
	pedf.data.out = a;
}`

func TestNextStepsOverCalls(t *testing.T) {
	h := newHarness(t, callSrc)
	if _, err := h.d.BreakLine("t.c", 6); err != nil {
		t.Fatal(err)
	}
	if ev := h.d.Continue(); ev.Kind != StopBreakpoint {
		t.Fatalf("stop = %v", ev)
	}
	ev := h.d.Next(h.p)
	if ev.Kind != StopStep || ev.Pos.Line != 7 {
		t.Fatalf("next landed at %v, want line 7", ev)
	}
}

func TestStepEntersCallAndFinishReturns(t *testing.T) {
	h := newHarness(t, callSrc)
	if _, err := h.d.BreakLine("t.c", 6); err != nil {
		t.Fatal(err)
	}
	if ev := h.d.Continue(); ev.Kind != StopBreakpoint {
		t.Fatal("no initial stop")
	}
	ev := h.d.Step(h.p)
	if ev.Kind != StopStep || ev.Pos.Line != 2 || ev.Fn != "helper" {
		t.Fatalf("step entered %v, want helper line 2", ev)
	}
	// Stack should show helper ← work.
	frames := h.d.FramesFor(h.p)
	if len(frames) != 2 || frames[0].FuncName() != "helper" || frames[1].FuncName() != "work" {
		t.Fatalf("frames = %v", frames)
	}
	ev = h.d.FinishStep(h.p)
	if ev.Kind != StopStep || ev.Pos.Line != 7 {
		t.Fatalf("finish landed at %v, want line 7", ev)
	}
}

func TestWatchpointFires(t *testing.T) {
	h := newHarness(t, countSrc)
	// Pre-create the object so it can be registered before running.
	v, _ := h.env.DataRef("count")
	h.d.RegisterObject("Target_data_count", v)
	w, err := h.d.Watch("Target_data_count")
	if err != nil {
		t.Fatal(err)
	}
	ev := h.d.Continue()
	if ev.Kind != StopWatchpoint {
		t.Fatalf("stop = %v, want watchpoint", ev)
	}
	if !strings.Contains(ev.Reason, "0 -> 1") {
		t.Errorf("reason = %q", ev.Reason)
	}
	if w.HitCount != 1 {
		t.Errorf("hits = %d", w.HitCount)
	}
	// All five increments fire.
	count := 1
	for {
		ev = h.d.Continue()
		if ev.Kind == StopDone {
			break
		}
		if ev.Kind != StopWatchpoint {
			t.Fatalf("stop = %v", ev)
		}
		count++
	}
	if count != 5 {
		t.Errorf("watchpoint fired %d times, want 5", count)
	}
	if err := h.d.DeleteWatch(w.ID); err != nil {
		t.Errorf("DeleteWatch: %v", err)
	}
	if err := h.d.DeleteWatch(999); err == nil {
		t.Error("DeleteWatch(999) succeeded")
	}
}

func TestWatchUnregisteredObjectFails(t *testing.T) {
	h := newHarness(t, countSrc)
	if _, err := h.d.Watch("nope"); err == nil {
		t.Error("Watch on unregistered object succeeded")
	}
}

func TestPrintExprLocalsAndObjects(t *testing.T) {
	h := newHarness(t, countSrc)
	if _, err := h.d.BreakLine("t.c", 5); err != nil {
		t.Fatal(err)
	}
	ev := h.d.Continue()
	if ev.Kind != StopBreakpoint {
		t.Fatal("no stop")
	}
	v, err := h.d.PrintExpr(h.p, "i")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 0 {
		t.Errorf("i = %d, want 0", v.I)
	}
	cnt, _ := h.env.DataRef("count")
	h.d.RegisterObject("Count_obj", cnt)
	v, err = h.d.PrintExpr(h.p, "Count_obj")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 1 {
		t.Errorf("count object = %d, want 1", v.I)
	}
	if _, err := h.d.PrintExpr(h.p, "ghost"); err == nil {
		t.Error("PrintExpr(ghost) succeeded")
	}
}

func TestPrintExprPaths(t *testing.T) {
	h := newHarness(t, countSrc)
	st := &filterc.Type{Kind: filterc.KStruct, Name: "S", Fields: []filterc.Field{
		{Name: "Addr", Type: filterc.Scalar(filterc.U32)},
		{Name: "Arr", Type: filterc.ArrayOf(filterc.Scalar(filterc.U8), 3)},
	}}
	obj := filterc.Zero(st)
	obj.Elems[0].I = 0x145D
	obj.Elems[1].Elems[2].I = 9
	h.d.RegisterObject("tok", &obj)
	v, err := h.d.PrintExpr(nil, "tok.Addr")
	if err != nil || v.I != 0x145D {
		t.Errorf("tok.Addr = %v, %v", v, err)
	}
	v, err = h.d.PrintExpr(nil, "tok.Arr[2]")
	if err != nil || v.I != 9 {
		t.Errorf("tok.Arr[2] = %v, %v", v, err)
	}
	if _, err := h.d.PrintExpr(nil, "tok.Nope"); err == nil {
		t.Error("bad field lookup succeeded")
	}
	if _, err := h.d.PrintExpr(nil, "tok.Arr[9]"); err == nil {
		t.Error("oob index succeeded")
	}
	if _, err := h.d.PrintExpr(nil, "tok.Addr.x"); err == nil {
		t.Error("member of scalar succeeded")
	}
}

func TestDeadlockReportedOnDone(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, dbginfo.NewTable())
	ev := k.NewEvent("never")
	k.Spawn("stuck", func(p *sim.Proc) { p.Wait(ev) })
	stop := d.Continue()
	if stop.Kind != StopDone || stop.Deadlock == nil {
		t.Fatalf("stop = %v, deadlock = %v", stop, stop.Deadlock)
	}
}

func TestErrorPropagates(t *testing.T) {
	h := newHarness(t, `void work() { u32 z = 0; u32 x = 1 / z; }`)
	ev := h.d.Continue()
	if ev.Kind != StopError || ev.Err == nil {
		t.Fatalf("stop = %v", ev)
	}
}

func TestBreakpointListingAndDeletion(t *testing.T) {
	h := newHarness(t, countSrc)
	h.d.Syms.MustDefine(dbginfo.Symbol{Name: "work_symbol", Kind: dbginfo.SymFunc})
	b1, _ := h.d.BreakFunc("work_symbol")
	b2, _ := h.d.BreakLine("t.c", 4)
	list := h.d.Breakpoints()
	if len(list) != 2 || list[0] != b1 || list[1] != b2 {
		t.Fatalf("list = %v", list)
	}
	if !strings.Contains(b1.String(), "work_symbol") || !strings.Contains(b2.String(), "t.c:4") {
		t.Errorf("strings: %s / %s", b1, b2)
	}
	if err := h.d.DeleteBp(b1.ID); err != nil {
		t.Fatal(err)
	}
	if err := h.d.DeleteBp(b1.ID); err == nil {
		t.Error("double delete succeeded")
	}
	if len(h.d.Breakpoints()) != 1 {
		t.Error("deletion did not shrink list")
	}
}

func TestHookCallCounting(t *testing.T) {
	h := newHarness(t, countSrc)
	if ev := h.d.Continue(); ev.Kind != StopDone {
		t.Fatal("did not finish")
	}
	// 1 EnterFunc + 17 statements (decl, 6 while evals, 5+5 body stmts).
	if h.d.HookCalls != 18 {
		t.Errorf("hook calls = %d, want 18", h.d.HookCalls)
	}
}

func TestSourceListing(t *testing.T) {
	h := newHarness(t, countSrc)
	if got := h.d.SourceLine("t.c", 1); got != "void work() {" {
		t.Errorf("line 1 = %q", got)
	}
	if h.d.SourceLine("t.c", 0) != "" || h.d.SourceLine("other.c", 1) != "" {
		t.Error("bad lookups should return empty")
	}
}

func TestThreadsListing(t *testing.T) {
	h := newHarness(t, countSrc)
	ths := h.d.Threads()
	if len(ths) != 1 || ths[0] != h.p {
		t.Errorf("threads = %v", ths)
	}
}

func TestObjectRegistry(t *testing.T) {
	h := newHarness(t, countSrc)
	v := filterc.Int(filterc.U32, 3)
	h.d.RegisterObject("b_sym", &v)
	h.d.RegisterObject("a_sym", &v)
	if names := h.d.ObjectNames(); len(names) != 2 || names[0] != "a_sym" {
		t.Errorf("names = %v", names)
	}
	if got, ok := h.d.Object("a_sym"); !ok || got.I != 3 {
		t.Error("Object lookup failed")
	}
	if _, ok := h.d.Object("zzz"); ok {
		t.Error("Object(zzz) found")
	}
}
