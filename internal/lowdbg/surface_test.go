package lowdbg

import (
	"strings"
	"testing"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/sim"
)

func TestArgHelpers(t *testing.T) {
	v := filterc.Int(filterc.U32, 5)
	args := []Arg{IntArg("n64", 7), IntArg("n", 9), StrArg("s", "hello"), ValArg("v", v)}
	if ArgInt(args, "n64") != 7 || ArgInt(args, "n") != 9 || ArgInt(args, "missing") != 0 {
		t.Error("ArgInt wrong")
	}
	if ArgInt(args, "s") != 0 || ArgInt(args, "v") != 0 {
		t.Error("ArgInt on a string or value should be 0")
	}
	if ArgString(args, "s") != "hello" || ArgString(args, "n") != "" {
		t.Error("ArgString wrong")
	}
	if got, ok := ArgValue(args, "v"); !ok || !got.Equal(v) {
		t.Errorf("ArgValue = %v, %v", got, ok)
	}
	if _, ok := ArgValue(args, "n"); ok {
		t.Error("ArgValue on an int should report false")
	}
	if got, ok := ArgVal(args, "n64"); !ok || got != int64(7) {
		t.Errorf("ArgVal(n64) = %v, %v", got, ok)
	}
	if got, ok := ArgVal(args, "s"); !ok || got != "hello" {
		t.Errorf("ArgVal(s) = %v, %v", got, ok)
	}
	if got, ok := ArgVal(args, "v"); !ok || !got.(filterc.Value).Equal(v) {
		t.Errorf("ArgVal(v) = %v, %v", got, ok)
	}
	if got, ok := ArgVal(args, "missing"); ok || got != nil {
		t.Errorf("ArgVal(missing) = %v, %v", got, ok)
	}
	if args[0].String() != "n64=7" {
		t.Errorf("Arg.String = %q", args[0].String())
	}
}

// TestStopEventArgsOwnAggregates: a stop event outlives the call whose
// arguments it copies, and the caller reuses an aggregate argument's
// storage (a filter's local, a link's ring slot), so the event's copy
// must be deep.
func TestStopEventArgsOwnAggregates(t *testing.T) {
	arr := filterc.Zero(filterc.ArrayOf(filterc.Scalar(filterc.I32), 2))
	arr.Elems[1].I = 7
	args := []Arg{IntArg("index", 3), ValArg("value", arr)}
	kept, ret := cloneArgs(args), Val(arr).owned()
	arr.Elems[1].I = 99
	if got, _ := ArgValue(kept, "value"); got.Elems[1].I != 7 {
		t.Errorf("stop-event argument followed the caller's storage: %v", got)
	}
	if ret.V.Elems[1].I != 7 {
		t.Errorf("stop-event return followed the caller's storage: %v", ret.V)
	}
	if ArgInt(kept, "index") != 3 {
		t.Errorf("scalar argument lost: %v", kept)
	}
}

func TestStopKindAndEventStrings(t *testing.T) {
	for _, k := range []StopKind{StopBreakpoint, StopStep, StopWatchpoint,
		StopAction, StopDone, StopError} {
		if strings.Contains(k.String(), "StopKind(") {
			t.Errorf("missing string for %d", int(k))
		}
	}
	var nilEv *StopEvent
	if nilEv.String() != "<running>" {
		t.Error("nil event string wrong")
	}
	ev := &StopEvent{Kind: StopDone, Reason: "program finished"}
	if ev.String() != "[done] program finished" {
		t.Errorf("event string = %q", ev.String())
	}
	if BpFunc.String() != "func" || BpLine.String() != "line" {
		t.Error("BpKind strings wrong")
	}
}

func TestTargetFuncRegistry(t *testing.T) {
	d := New(sim.NewKernel(), dbginfo.NewTable())
	d.RegisterTargetFunc("double", func(args ...any) (any, error) {
		return args[0].(int64) * 2, nil
	})
	out, err := d.CallTarget("double", int64(21))
	if err != nil || out.(int64) != 42 {
		t.Fatalf("CallTarget = %v %v", out, err)
	}
	if _, err := d.CallTarget("missing"); err == nil {
		t.Error("unknown target function accepted")
	}
}

func TestStoppedAndLastStop(t *testing.T) {
	h := newHarness(t, countSrc)
	if h.d.Stopped() || h.d.LastStop() != nil {
		t.Error("debugger stopped before running")
	}
	if _, err := h.d.BreakLine("t.c", 4); err != nil {
		t.Fatal(err)
	}
	ev := h.d.Continue()
	if !h.d.Stopped() || h.d.LastStop() != ev {
		t.Error("Stopped/LastStop wrong after stop")
	}
	if h.d.InterpFor(h.p) != h.in {
		t.Error("InterpFor wrong")
	}
	if h.d.InterpFor(nil) != nil {
		t.Error("InterpFor(nil) should be nil")
	}
	if frames := h.d.FramesFor(h.p); len(frames) != 1 {
		t.Errorf("frames = %v", frames)
	}
	// A process with no interpreter attached has no frames.
	other := h.k.Spawn("noop", func(p *sim.Proc) {})
	if h.d.FramesFor(other) != nil {
		t.Error("frames for foreign proc should be nil")
	}
}

func TestDeleteInternalBpAndAllBreakpoints(t *testing.T) {
	h := newHarness(t, countSrc)
	bp := h.d.BreakFuncInternal("work_symbol", nil, nil)
	if len(h.d.Breakpoints()) != 0 {
		t.Error("internal bp visible in user listing")
	}
	if len(h.d.AllBreakpoints()) != 1 {
		t.Error("internal bp missing from AllBreakpoints")
	}
	if err := h.d.DeleteBp(bp.ID); err == nil {
		t.Error("user delete removed an internal bp")
	}
	h.d.DeleteInternalBp(bp)
	if len(h.d.AllBreakpoints()) != 0 {
		t.Error("DeleteInternalBp did not remove")
	}
	if !strings.Contains(bp.String(), "(internal)") {
		t.Errorf("bp string = %q", bp.String())
	}
}

func TestWatchpointStringAndListing(t *testing.T) {
	h := newHarness(t, countSrc)
	v := filterc.Int(filterc.U32, 0)
	h.d.RegisterObject("obj", &v)
	w, err := h.d.Watch("obj")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.d.Watchpoints()) != 1 {
		t.Error("watchpoint not listed")
	}
	if !strings.Contains(w.String(), "watch#") || !strings.Contains(w.String(), "obj") {
		t.Errorf("watch string = %q", w.String())
	}
}

func TestBreakpointDisabledSkipsStop(t *testing.T) {
	h := newHarness(t, countSrc)
	h.d.Syms.MustDefine(dbginfo.Symbol{Name: "work_symbol", Kind: dbginfo.SymFunc})
	bp, _ := h.d.BreakFunc("work_symbol")
	bp.Enabled = false
	if ev := h.d.Continue(); ev.Kind != StopDone {
		t.Fatalf("disabled breakpoint stopped: %v", ev)
	}
	if bp.HitCount != 0 {
		t.Error("disabled breakpoint counted hits")
	}
}

func TestDisabledWatchpointSkipped(t *testing.T) {
	h := newHarness(t, countSrc)
	v, _ := h.env.DataRef("count")
	h.d.RegisterObject("cnt", v)
	w, _ := h.d.Watch("cnt")
	w.Enabled = false
	if ev := h.d.Continue(); ev.Kind != StopDone {
		t.Fatalf("disabled watchpoint stopped: %v", ev)
	}
}

func TestFinishStepFromTopLevelRunsToEnd(t *testing.T) {
	// finish with no deeper frame: execution continues to completion.
	h := newHarness(t, countSrc)
	if _, err := h.d.BreakLine("t.c", 2); err != nil {
		t.Fatal(err)
	}
	if ev := h.d.Continue(); ev.Kind != StopBreakpoint {
		t.Fatal("no stop")
	}
	ev := h.d.FinishStep(h.p)
	if ev.Kind != StopDone {
		t.Fatalf("finish from depth 1 = %v (no caller to return to)", ev)
	}
}
