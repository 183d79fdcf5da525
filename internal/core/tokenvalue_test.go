package core

import (
	"testing"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// pairType is the struct token of the aggregate-token harness.
var pairType = &filterc.Type{Kind: filterc.KStruct, Name: "Pair_t", Fields: []filterc.Field{
	{Name: "A", Type: u32},
	{Name: "B", Type: filterc.ArrayOf(filterc.Scalar(filterc.I32), 2)},
}}

const pairDecl = "struct Pair_t { u32 A; i32 B[2]; };\n"

// mkSrc writes a struct local to io on every firing; fwdSrc forwards one
// local copy of its input and one token straight from the input window.
const mkSrc = pairDecl + `void work() {
	u32 v = pedf.io.in[0];
	Pair_t p;
	p.A = v;
	p.B[1] = v + 1;
	pedf.io.out[0] = p;
}`

const fwdSrc = pairDecl + `void work() {
	Pair_t q = pedf.io.in[0];
	pedf.io.copy_out[0] = q;
	pedf.io.win_out[0] = pedf.io.in[0];
	q.A = 0;
}`

// newPairHarness builds env -> mk -> fwd -> {env, env}, three firings.
func newPairHarness(t *testing.T) (*sim.Kernel, *lowdbg.Debugger, *Debugger, *pedf.Runtime) {
	t.Helper()
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	d := Attach(low)
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 4})
	rt := pedf.NewRuntime(k, m, low)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mod, err := rt.NewModule("m", nil)
	must(err)
	min, _ := mod.AddPort("in", pedf.In, u32)
	copyOut, _ := mod.AddPort("copy", pedf.Out, pairType)
	winOut, _ := mod.AddPort("win", pedf.Out, pairType)
	mk, err := rt.NewFilter(mod, pedf.FilterSpec{
		Name: "mk", Source: mkSrc,
		Inputs:  []pedf.PortSpec{{Name: "in", Type: u32}},
		Outputs: []pedf.PortSpec{{Name: "out", Type: pairType}},
	})
	must(err)
	fwd, err := rt.NewFilter(mod, pedf.FilterSpec{
		Name: "fwd", Source: fwdSrc,
		Inputs:  []pedf.PortSpec{{Name: "in", Type: pairType}},
		Outputs: []pedf.PortSpec{{Name: "copy_out", Type: pairType}, {Name: "win_out", Type: pairType}},
	})
	must(err)
	_, err = rt.SetController(mod, pedf.ControllerSpec{Source: `u32 work() {
	ACTOR_START("mk");
	ACTOR_START("fwd");
	WAIT_FOR_ACTOR_INIT();
	ACTOR_SYNC("mk");
	ACTOR_SYNC("fwd");
	WAIT_FOR_ACTOR_SYNC();
	if (STEP_INDEX() + 1 >= 3) return 0;
	return 1;
}`})
	must(err)
	must(rt.Bind(min, mk.In("in")))
	must(rt.Bind(mk.Out("out"), fwd.In("in")))
	must(rt.Bind(fwd.Out("copy_out"), copyOut))
	must(rt.Bind(fwd.Out("win_out"), winOut))
	must(rt.FeedInput(min, feedN(3)))
	_, err = rt.CollectOutput(copyOut)
	must(err)
	_, err = rt.CollectOutput(winOut)
	must(err)
	must(rt.Start())
	if st, err := k.RunUntil(0); err != nil || st != sim.RunHorizon {
		t.Fatalf("boot: %v %v", st, err)
	}
	return k, low, d, rt
}

// TestRecordedStructTokensKeepTheirValues: a token the debugger holds
// owns its value. The filter's struct local, its input window and the
// link's ring slot are all reused by later firings; none of that may
// reach a recorded token, the last token or a token's origins.
func TestRecordedStructTokensKeepTheirValues(t *testing.T) {
	_, low, d, _ := newPairHarness(t)
	for _, iface := range []string{"mk::out", "fwd::copy_out", "fwd::win_out"} {
		if err := d.SetRecording(iface, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ConfigureBehavior("fwd", BehaviorMap); err != nil {
		t.Fatal(err)
	}
	// Stop at the end of fwd's first firing, keep its last token, then
	// let the later firings overwrite every buffer it came from.
	cp, err := d.CatchTokensOf("fwd", map[string]uint64{"in": 1})
	if err != nil {
		t.Fatal(err)
	}
	if ev := low.Continue(); ev.Kind != lowdbg.StopAction {
		t.Fatalf("stop = %v", ev)
	}
	conn, err := d.Connection("mk::out")
	if err != nil {
		t.Fatal(err)
	}
	first := conn.LastToken()
	if err := d.DeleteCatch(cp.ID); err != nil {
		t.Fatal(err)
	}
	if ev := low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("stop = %v", ev)
	}
	want := func(n int64) string { return "{A = " + itoa(int(n)) + ", B = [0, " + itoa(int(n+1)) + "]}" }
	if got := first.Hop.Val.String(); got != want(10) {
		t.Errorf("mk's first last-token = %s, want %s", got, want(10))
	}
	for _, iface := range []string{"mk::out", "fwd::copy_out", "fwd::win_out"} {
		toks, err := d.RecordedTokens(iface)
		if err != nil {
			t.Fatal(err)
		}
		if len(toks) != 3 {
			t.Fatalf("%s recorded %d tokens, want 3", iface, len(toks))
		}
		for i, tok := range toks {
			if got := tok.Hop.Val.String(); got != want(int64(10*(i+1))) {
				t.Errorf("%s #%d = %s, want %s", iface, i+1, got, want(int64(10*(i+1))))
			}
			if iface != "mk::out" && (len(tok.Origins) != 1 || len(tok.Path()) != 2 ||
				tok.Path()[1].Val.String() != want(int64(10*(i+1)))) {
				t.Errorf("%s #%d origins = %v, path %v", iface, i+1, tok.Origins, tok.Path())
			}
		}
	}
}
