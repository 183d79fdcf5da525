package lowdbg

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
)

// A hit runs in a recycled call frame: once the free list is warm, an
// intercepted call whose breakpoints only run actions allocates nothing,
// with or without an observer accounting the handler cost, and with or
// without a finish action.
func TestEnterFuncHitDoesNotAllocate(t *testing.T) {
	for _, c := range []struct {
		observed, onReturn bool
	}{{false, false}, {true, false}, {false, true}, {true, true}} {
		k := sim.NewKernel()
		if c.observed {
			k.SetObserver(obs.NewRecorder(64))
		}
		d := New(k, dbginfo.NewTable())
		hits, returns := 0, 0
		var onReturn func(*StopCtx) Disposition
		if c.onReturn {
			onReturn = func(*StopCtx) Disposition { returns++; return DispContinue }
		}
		d.BreakFuncInternal("sym", func(*StopCtx) Disposition { hits++; return DispContinue }, onReturn)
		args := []Arg{StrArg("self", "target")}
		allocs := mallocs(1000, func() {
			if exit := d.EnterFunc(nil, "sym", args); exit != nil {
				exit(Datum{})
			}
		})
		if allocs != 0 {
			t.Errorf("observed=%v onReturn=%v: 1000 hits allocate %d objects, want 0", c.observed, c.onReturn, allocs)
		}
		if hits == 0 || c.onReturn != (returns == hits) {
			t.Errorf("observed=%v onReturn=%v: %d hits, %d returns", c.observed, c.onReturn, hits, returns)
		}
	}
}

// Finish actions run in the order their breakpoints were collected at
// entry. When the first stops the world, the second runs exactly once,
// after the driver continues — and the recycled frames keep that true
// for every later call.
func TestFinishStopKeepsFinisherOrder(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, dbginfo.NewTable())
	var log []string
	finisher := func(name string, disp Disposition) func(*StopCtx) Disposition {
		return func(ctx *StopCtx) Disposition {
			log = append(log, fmt.Sprintf("%s(call=%d ret=%v)", name, ArgInt(ctx.Args, "call"), ctx.Ret))
			return disp
		}
	}
	first := d.BreakFuncInternal("fn", nil, finisher("first", DispStop))
	d.BreakFuncInternal("fn", nil, finisher("second", DispContinue))
	k.Spawn("target", func(p *sim.Proc) {
		for call := int64(1); call <= 2; call++ {
			if exit := d.EnterFunc(p, "fn", []Arg{IntArg("call", call)}); exit != nil {
				exit(Datum{Kind: IntDatum, I: call * 10})
			}
		}
	})
	for call := 1; call <= 2; call++ {
		ev := d.Continue()
		if ev.Kind != StopAction || !ev.IsReturn || ev.Bp != first || ev.Ret.Kind != IntDatum || ev.Ret.I != int64(call*10) ||
			ArgInt(ev.Args, "call") != int64(call) {
			t.Fatalf("call %d: stop = %v (bp %v, ret %v, args %v)", call, ev, ev.Bp, ev.Ret, ev.Args)
		}
		// Stopped inside the finisher loop: the second action is pending.
		if len(log) != 2*call-1 {
			t.Fatalf("call %d: at the stop the finish log is %v", call, log)
		}
	}
	if ev := d.Continue(); ev.Kind != StopDone {
		t.Fatalf("final stop = %v", ev)
	}
	want := "first(call=1 ret=10) second(call=1 ret=10) first(call=2 ret=20) second(call=2 ret=20)"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("finish actions ran as\n%s\nwant\n%s", got, want)
	}
}

// A line breakpoint whose condition is false runs in a recycled call
// frame too: once the free list is warm, the statement hook looks the
// line up and evaluates the condition without allocating.
func TestConditionalLineHitDoesNotAllocate(t *testing.T) {
	syms := dbginfo.NewTable()
	syms.LineTableFor("t.c").AddStmt(3, "work")
	d := New(sim.NewKernel(), syms)
	bp, err := d.BreakLine("t.c", 3)
	if err != nil {
		t.Fatal(err)
	}
	evals := 0
	bp.Condition = func(ctx *StopCtx) bool {
		evals++
		return ctx.Pos.Line != 3
	}
	h := &interpHooks{d: d}
	fr := &filterc.Frame{Fn: &filterc.FuncDecl{Name: "work"}}
	pos := filterc.Pos{File: "t.c", Line: 3}
	if allocs := mallocs(1000, func() { h.OnStmt(fr, pos) }); allocs != 0 {
		t.Errorf("1000 statements at a non-stopping conditional line breakpoint allocate %d objects, want 0", allocs)
	}
	if evals == 0 || bp.HitCount != 0 || d.Stopped() {
		t.Errorf("condition ran %d times, hit count %d, stopped %v", evals, bp.HitCount, d.Stopped())
	}
}

// The symbol lookup cache never answers with a stale breakpoint list:
// planting and deleting breakpoints on a symbol takes effect on the
// very next call, whichever string value names the symbol.
func TestFuncLookupCacheFollowsChanges(t *testing.T) {
	d := New(sim.NewKernel(), dbginfo.NewTable())
	hits := map[string]int{}
	action := func(name string) func(*StopCtx) Disposition {
		return func(*StopCtx) Disposition { hits[name]++; return DispContinue }
	}
	call := func(fn string) {
		if exit := d.EnterFunc(nil, fn, nil); exit != nil {
			exit(Datum{})
		}
	}
	other := d.BreakFuncInternal("other", action("other"), nil) // arms EnterFunc
	call("sym")
	first := d.BreakFuncInternal("sym", action("first"), nil)
	call("sym")
	call(string([]byte("sym"))) // same symbol, another string header
	second := d.BreakFuncInternal("sym", action("second"), nil)
	call("sym")
	d.DeleteInternalBp(first)
	call("sym")
	d.DeleteInternalBp(second)
	call("sym")
	call("other")
	d.DeleteInternalBp(other)
	if hits["first"] != 3 || hits["second"] != 2 || hits["other"] != 1 {
		t.Errorf("hits = %v, want first 3, second 2, other 1", hits)
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
