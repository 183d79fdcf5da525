package pedf

import (
	"fmt"
	"strings"
	"testing"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/sim"
)

// hookedRuntime builds a runtime under an attached low-level debugger
// with two bare links: A "a::o -> b::i" of capacity capA and B
// "c::o -> d::i" of capacity 8.
func hookedRuntime(capA int) (*sim.Kernel, *lowdbg.Debugger, *mach.Machine, *Link, *Link) {
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	m := mach.New(k, mach.Config{})
	rt := NewRuntime(k, m, low)
	a := newBareLink(k, rt, capA)
	b := newBareLink(k, rt, 8)
	b.ID = 2
	b.Src = &Port{ActorName: "c", Name: "o", Dir: Out, Type: u32}
	b.Dst = &Port{ActorName: "d", Name: "i", Dir: In, Type: u32}
	return k, low, m, a, b
}

// describeCall renders what a hook action sees of a push or pop call.
func describeCall(ctx *lowdbg.StopCtx) string {
	s := fmt.Sprintf("%s link=%d index=%d", ctx.Fn, lowdbg.ArgInt(ctx.Args, "link"),
		lowdbg.ArgInt(ctx.Args, "index"))
	if v, ok := lowdbg.ArgVal(ctx.Args, "value"); ok {
		s += fmt.Sprintf(" value=%v", v)
	}
	if ctx.IsReturn {
		s = "return " + s + fmt.Sprintf(" ret=%v", ctx.Ret)
	} else {
		s = "enter " + s
	}
	return s
}

// A process parked inside a hooked push keeps its call frame and its
// argument list while other processes' hooked calls enter and complete:
// every call's return action sees its own arguments and return value.
func TestParkedHookKeepsItsOwnArgs(t *testing.T) {
	k, low, m, a, b := hookedRuntime(1)
	var log []string
	record := func(ctx *lowdbg.StopCtx) lowdbg.Disposition {
		log = append(log, describeCall(ctx))
		return lowdbg.DispContinue
	}
	low.BreakFuncInternal(SymLinkPush, record, record)
	low.BreakFuncInternal(SymLinkPop, record, record)
	k.Spawn("producer", func(p *sim.Proc) {
		for _, v := range []int64{10, 11} { // the second push parks: A is full
			if err := a.push(p, nil, m.Host, u32v(v)); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("other", func(p *sim.Proc) {
		var dst filterc.Value
		if err := b.push(p, nil, m.Host, u32v(20)); err != nil {
			t.Error(err)
		}
		if _, err := b.pop(p, nil, &dst); err != nil {
			t.Error(err)
		}
		for i := 0; i < 2; i++ { // unblock the producer, then drain A
			if _, err := a.pop(p, nil, &dst); err != nil {
				t.Error(err)
			}
		}
	})
	if st := low.Continue(); st.Kind != lowdbg.StopDone || st.Deadlock != nil {
		t.Fatalf("run ended with %v", st)
	}
	// The producer's second push on A parks between its entry and its
	// return; the other process's push and pop on B and its first pop on
	// A run to completion inside that span.
	want := []string{
		"enter pedf_link_push link=1 index=0 value=10",
		"enter pedf_link_push link=2 index=0 value=20",
		"return pedf_link_push link=1 index=0 value=10 ret=<nil>",
		"enter pedf_link_push link=1 index=1 value=11",
		"return pedf_link_push link=2 index=0 value=20 ret=<nil>",
		"enter pedf_link_pop link=2 index=0",
		"return pedf_link_pop link=2 index=0 ret=20",
		"enter pedf_link_pop link=1 index=0",
		"return pedf_link_pop link=1 index=0 ret=10",
		"enter pedf_link_pop link=1 index=1",
		"return pedf_link_push link=1 index=1 value=11 ret=<nil>",
		"return pedf_link_pop link=1 index=1 ret=11",
	}
	if got := strings.Join(log, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("hook log:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// A stop event keeps the arguments of the call it stopped in, although
// the link reuses its argument list for every later push.
func TestStopEventArgsOutliveLaterHooks(t *testing.T) {
	k, low, m, a, _ := hookedRuntime(8)
	if _, err := low.BreakFunc(SymLinkPush); err != nil {
		t.Fatal(err)
	}
	k.Spawn("producer", func(p *sim.Proc) {
		for _, v := range []int64{10, 11, 12} {
			if err := a.push(p, nil, m.Host, u32v(v)); err != nil {
				t.Error(err)
			}
		}
	})
	var stops []*lowdbg.StopEvent
	for st := low.Continue(); st.Kind == lowdbg.StopBreakpoint; st = low.Continue() {
		stops = append(stops, st)
	}
	if len(stops) != 3 {
		t.Fatalf("got %d push stops, want 3", len(stops))
	}
	for i, st := range stops {
		idx := lowdbg.ArgInt(st.Args, "index")
		v, _ := lowdbg.ArgVal(st.Args, "value")
		if fv, ok := v.(filterc.Value); idx != int64(i) || !ok || fv.I != int64(10+i) {
			t.Errorf("stop %d now reads index=%d value=%v, want index=%d value=%d", i, idx, v, i, 10+i)
		}
	}
}

// Pop stops keep their own arguments and return value too: the entry
// and finish stops of every pop still read that pop's index and token
// after later pops rewrote the link's recycled list.
func TestPopStopEventsOutliveLaterHooks(t *testing.T) {
	k, low, m, a, _ := hookedRuntime(8)
	stop := func(*lowdbg.StopCtx) lowdbg.Disposition { return lowdbg.DispStop }
	low.BreakFuncInternal(SymLinkPop, stop, stop)
	k.Spawn("producer", func(p *sim.Proc) {
		for _, v := range []int64{10, 11, 12} {
			if err := a.push(p, nil, m.Host, u32v(v)); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("consumer", func(p *sim.Proc) {
		var dst filterc.Value
		for i := 0; i < 3; i++ {
			if _, err := a.pop(p, nil, &dst); err != nil {
				t.Error(err)
			}
		}
	})
	var stops []*lowdbg.StopEvent
	for st := low.Continue(); st.Kind == lowdbg.StopAction; st = low.Continue() {
		stops = append(stops, st)
	}
	if len(stops) != 6 {
		t.Fatalf("got %d pop stops, want 6", len(stops))
	}
	for i, st := range stops {
		pop := int64(i / 2)
		if idx := lowdbg.ArgInt(st.Args, "index"); idx != pop || st.IsReturn != (i%2 == 1) {
			t.Errorf("stop %d now reads index=%d return=%v, want index=%d", i, idx, st.IsReturn, pop)
		}
		if !st.IsReturn {
			if st.Ret.Kind != lowdbg.NoDatum {
				t.Errorf("entry stop %d carries a return value %v", i, st.Ret)
			}
			continue
		}
		if st.Ret.Kind != lowdbg.ValueDatum || st.Ret.V.I != 10+pop {
			t.Errorf("finish stop %d now reads ret=%v, want %d", i, st.Ret, 10+pop)
		}
	}
}
