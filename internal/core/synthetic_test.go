package core

import (
	"strings"
	"testing"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/sim"
)

// The paper's conclusion expects the debugger "to be able to easily
// encompass new models, thanks to a generic code base": the dataflow
// layer only consumes the intercepted call surface, so ANY runtime that
// reports the same API events gets full dataflow debugging. This file
// drives core with a hand-rolled synthetic target — no pedf at all.

// synthTarget emits framework API events through lowdbg.EnterFunc the
// way a foreign dataflow runtime would.
type synthTarget struct {
	low *lowdbg.Debugger
	p   *sim.Proc
}

func (s *synthTarget) call(fn string, args ...lowdbg.Arg) {
	if exit := s.low.EnterFunc(s.p, fn, args); exit != nil {
		exit(lowdbg.Datum{})
	}
}

func (s *synthTarget) callRet(fn string, ret filterc.Value, args ...lowdbg.Arg) {
	if exit := s.low.EnterFunc(s.p, fn, args); exit != nil {
		exit(lowdbg.Val(ret))
	}
}

func u32val(i int64) filterc.Value { return filterc.Int(filterc.U32, i) }

func TestSyntheticTargetReconstruction(t *testing.T) {
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	d := Attach(low)

	var stops []string
	done := make(chan struct{})
	k.Spawn("foreign-runtime", func(p *sim.Proc) {
		defer close(done)
		st := &synthTarget{low: low, p: p}
		// Registration phase: one module, two actors, one link.
		st.call("pedf_register_module",
			lowdbg.StrArg("module", "kpn"), lowdbg.StrArg("parent", ""))
		st.call("pedf_register_filter",
			lowdbg.StrArg("filter", "prod"), lowdbg.StrArg("module", "kpn"))
		st.call("pedf_register_filter",
			lowdbg.StrArg("filter", "cons"), lowdbg.StrArg("module", "kpn"))
		st.call("pedf_register_port",
			lowdbg.StrArg("actor", "prod"), lowdbg.StrArg("port", "o"),
			lowdbg.StrArg("dir", "output"), lowdbg.StrArg("type", "U32"))
		st.call("pedf_register_port",
			lowdbg.StrArg("actor", "cons"), lowdbg.StrArg("port", "i"),
			lowdbg.StrArg("dir", "input"), lowdbg.StrArg("type", "U32"))
		st.call("pedf_bind",
			lowdbg.IntArg("link", 1),
			lowdbg.StrArg("src", "prod"), lowdbg.StrArg("src_port", "o"),
			lowdbg.StrArg("dst", "cons"), lowdbg.StrArg("dst_port", "i"),
			lowdbg.StrArg("kind", "data"))
		// Execution phase: three tokens flow.
		linkArgs := func(idx int64, v filterc.Value) []lowdbg.Arg {
			return []lowdbg.Arg{
				lowdbg.IntArg("link", 1),
				lowdbg.StrArg("src", "prod"), lowdbg.StrArg("src_port", "o"),
				lowdbg.StrArg("dst", "cons"), lowdbg.StrArg("dst_port", "i"),
				lowdbg.IntArg("index", idx), lowdbg.ValArg("value", v),
			}
		}
		for i := int64(0); i < 3; i++ {
			v := u32val(100 + i)
			st.call("pedf_link_push", linkArgs(i, v)...)
			st.callRet("pedf_link_pop", v, linkArgs(i, v)[:6]...)
		}
	})
	// Catchpoint on the synthetic consumer.
	// (Plant before running; registration happens inside the run.)
	ev := low.Continue()
	if ev.Kind != lowdbg.StopDone {
		t.Fatalf("run = %v", ev)
	}
	<-done
	_ = stops

	// The model reconstructed a foreign runtime's application.
	if a := d.Actor("prod"); a == nil || a.Kind != KindFilter || a.Module != "kpn" {
		t.Fatalf("prod = %v", a)
	}
	conn, err := d.Connection("cons::i")
	if err != nil {
		t.Fatal(err)
	}
	if conn.Received != 3 {
		t.Errorf("received = %d, want 3", conn.Received)
	}
	if conn.Link.TotalPushed != 3 || conn.Link.TotalPopped != 3 || conn.Link.Occupancy() != 0 {
		t.Errorf("link accounting: %+v", conn.Link)
	}
	if conn.LastToken == nil || conn.LastToken.Hop.Val.I != 102 {
		t.Errorf("last token = %v", conn.LastToken)
	}
	dot := d.GraphDOT()
	if !strings.Contains(dot, `"prod" -> "cons";`) || !strings.Contains(dot, `label="kpn";`) {
		t.Errorf("graph:\n%s", dot)
	}
}

func TestSyntheticTargetCatchpoints(t *testing.T) {
	// Catchpoints work against the synthetic target too: register first
	// (paused), then plant, then stream tokens.
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	d := Attach(low)

	gate := k.NewEvent("gate")
	k.Spawn("foreign-runtime", func(p *sim.Proc) {
		st := &synthTarget{low: low, p: p}
		st.call("pedf_register_module",
			lowdbg.StrArg("module", "kpn"), lowdbg.StrArg("parent", ""))
		st.call("pedf_register_filter",
			lowdbg.StrArg("filter", "cons"), lowdbg.StrArg("module", "kpn"))
		st.call("pedf_bind",
			lowdbg.IntArg("link", 1),
			lowdbg.StrArg("src", "env"), lowdbg.StrArg("src_port", "o"),
			lowdbg.StrArg("dst", "cons"), lowdbg.StrArg("dst_port", "i"),
			lowdbg.StrArg("kind", "dma"))
		p.Wait(gate) // let the test plant catchpoints mid-run
		for i := int64(0); i < 4; i++ {
			v := u32val(i)
			args := []lowdbg.Arg{
				lowdbg.IntArg("link", 1),
				lowdbg.StrArg("src", "env"), lowdbg.StrArg("src_port", "o"),
				lowdbg.StrArg("dst", "cons"), lowdbg.StrArg("dst_port", "i"),
				lowdbg.IntArg("index", i), lowdbg.ValArg("value", v),
			}
			st.call("pedf_link_push", args...)
			st.callRet("pedf_link_pop", v, args[:6]...)
		}
	})
	// Run registration (the runtime parks on the gate; the kernel idles).
	if ev := low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("registration run = %v", ev)
	}
	if _, err := d.CatchTokensOf("cons", map[string]uint64{"i": 2}); err != nil {
		t.Fatal(err)
	}
	gate.Notify()
	ev := low.Continue()
	if ev.Kind != lowdbg.StopAction ||
		!strings.Contains(ev.Reason, "Stopped after receiving token from `cons::i'") {
		t.Fatalf("stop = %v", ev)
	}
	conn, _ := d.Connection("cons::i")
	if conn.Received != 2 {
		t.Errorf("stopped at received=%d, want 2", conn.Received)
	}
	if ev = low.Continue(); ev.Kind != lowdbg.StopAction {
		t.Fatalf("re-armed catchpoint did not fire: %v", ev)
	}
	if ev = low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("final = %v", ev)
	}
}

// The push and pop handlers find a bound link's endpoints through the
// link id alone; a link pedf_bind never announced falls back to the
// endpoint names the call carries, registered port or not, and its
// exchanges end when the calls return.
func TestSyntheticTargetUnboundLinkFallback(t *testing.T) {
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	d := Attach(low)
	blocked := func() map[string]string {
		out := map[string]string{}
		for _, fi := range d.InfoFilters() {
			out[fi.Name] = fi.BlockedOn
		}
		return out
	}
	// Planted after the dataflow layer's own breakpoints, these run after
	// its entry actions, while the exchange is in flight.
	var inFlight []map[string]string
	seen := func(*lowdbg.StopCtx) lowdbg.Disposition {
		inFlight = append(inFlight, blocked())
		return lowdbg.DispContinue
	}
	low.BreakFuncInternal("pedf_link_push", seen, nil)
	low.BreakFuncInternal("pedf_link_pop", seen, nil)
	boundProcs := false
	k.Spawn("foreign-runtime", func(p *sim.Proc) {
		st := &synthTarget{low: low, p: p}
		st.call("pedf_register_module", lowdbg.StrArg("module", "kpn"), lowdbg.StrArg("parent", ""))
		for _, f := range []string{"prod", "cons"} {
			st.call("pedf_register_filter", lowdbg.StrArg("filter", f), lowdbg.StrArg("module", "kpn"))
		}
		st.call("pedf_register_port", lowdbg.StrArg("actor", "prod"), lowdbg.StrArg("port", "o"),
			lowdbg.StrArg("dir", "output"), lowdbg.StrArg("type", "U32"))
		st.call("pedf_bind", lowdbg.IntArg("link", 1),
			lowdbg.StrArg("src", "prod"), lowdbg.StrArg("src_port", "o"),
			lowdbg.StrArg("dst", "cons"), lowdbg.StrArg("dst_port", "i"), lowdbg.StrArg("kind", "data"))
		// Bound: the link id alone names the endpoints.
		st.call("pedf_link_push", lowdbg.IntArg("link", 1), lowdbg.IntArg("index", 0),
			lowdbg.ValArg("value", u32val(5)))
		st.callRet("pedf_link_pop", u32val(5), lowdbg.IntArg("link", 1), lowdbg.IntArg("index", 0))
		boundProcs = d.Actor("prod").Proc == p && d.Actor("cons").Proc == p
		// Unbound: the names do.
		unbound := []lowdbg.Arg{lowdbg.IntArg("link", 9),
			lowdbg.StrArg("src", "prod"), lowdbg.StrArg("src_port", "o"),
			lowdbg.StrArg("dst", "cons"), lowdbg.StrArg("dst_port", "zz"), lowdbg.IntArg("index", 0)}
		st.call("pedf_link_push", unbound...)
		st.callRet("pedf_link_pop", u32val(6), unbound...)
	})
	if ev := low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("run = %v", ev)
	}
	conn, err := d.Connection("cons::i")
	if err != nil {
		t.Fatal(err)
	}
	if conn.Received != 1 || conn.LastToken == nil || conn.LastToken.Hop.Val.I != 5 || !boundProcs {
		t.Errorf("bound link: received %d, last token %v, endpoints bound to the process %v",
			conn.Received, conn.LastToken, boundProcs)
	}
	want := []string{"push:o", "pop:i", "push:o", "pop:zz"}
	for i, w := range want {
		actor := "prod"
		if i%2 == 1 {
			actor = "cons"
		}
		if i >= len(inFlight) || inFlight[i][actor] != w {
			t.Fatalf("in-flight exchanges %v, want %s on %s at call %d", inFlight, w, actor, i)
		}
	}
	if after := blocked(); after["prod"] != "" || after["cons"] != "" {
		t.Errorf("exchanges still in flight after the calls returned: %v", after)
	}
	if d.DataEvents != 4 {
		t.Errorf("data events = %d, want 4", d.DataEvents)
	}
}
