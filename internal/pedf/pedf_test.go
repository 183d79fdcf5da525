package pedf

import (
	"fmt"
	"testing"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/sim"
)

// u32 is a shorthand used throughout the tests.
var u32 = filterc.Scalar(filterc.U32)

func u32v(i int64) filterc.Value { return filterc.Int(filterc.U32, i) }

// buildAModule constructs the paper's Figure 2 application: module
// AModule with a controller and two chained AFilter instances, fed with
// `n` tokens. Each filter adds its attribute to the token.
//
// steps controls how many controller steps run (one token per step).
func buildAModule(t *testing.T, n int, linkCap int) (*Runtime, *Collector) {
	t.Helper()
	k := sim.NewKernel()
	m := mach.New(k, mach.Config{Clusters: 2, PEsPerCluster: 4})
	rt := NewRuntime(k, m, nil)
	if linkCap > 0 {
		rt.LinkCap = linkCap
	}

	mod, err := rt.NewModule("AModule", nil)
	if err != nil {
		t.Fatal(err)
	}
	min, err := mod.AddPort("module_in", In, u32)
	if err != nil {
		t.Fatal(err)
	}
	mout, err := mod.AddPort("module_out", Out, u32)
	if err != nil {
		t.Fatal(err)
	}

	filterSrc := `void work() {
	u32 c = pedf.io.cmd_in[0];
	u32 v = pedf.io.an_input[0];
	pedf.data.a_private_data = v;
	pedf.io.an_output[0] = v + pedf.attribute.an_attribute + c - 1;
}`
	mkFilter := func(name string, attr int64) *Filter {
		f, err := rt.NewFilter(mod, FilterSpec{
			Name:   name,
			Source: filterSrc,
			Data:   []VarSpec{{Name: "a_private_data", Type: u32}},
			Attrs:  []VarSpec{{Name: "an_attribute", Type: u32, Init: attr}},
			Inputs: []PortSpec{{Name: "an_input", Type: u32},
				{Name: "cmd_in", Type: filterc.Scalar(filterc.U8)}},
			Outputs: []PortSpec{{Name: "an_output", Type: u32}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f1 := mkFilter("filter_1", 1)
	f2 := mkFilter("filter_2", 10)

	ctlSrc := fmt.Sprintf(`u32 work() {
	pedf.io.cmd_out_1[0] = 1;
	pedf.io.cmd_out_2[0] = 1;
	ACTOR_START("filter_1");
	ACTOR_START("filter_2");
	WAIT_FOR_ACTOR_INIT();
	ACTOR_SYNC("filter_1");
	ACTOR_SYNC("filter_2");
	WAIT_FOR_ACTOR_SYNC();
	if (STEP_INDEX() + 1 >= %d) return 0;
	return 1;
}`, n)
	ctl, err := rt.SetController(mod, ControllerSpec{
		Source: ctlSrc,
		Outputs: []PortSpec{
			{Name: "cmd_out_1", Type: filterc.Scalar(filterc.U8)},
			{Name: "cmd_out_2", Type: filterc.Scalar(filterc.U8)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	binds := [][2]*Port{
		{ctl.Out("cmd_out_1"), f1.In("cmd_in")},
		{ctl.Out("cmd_out_2"), f2.In("cmd_in")},
		{min, f1.In("an_input")},
		{f1.Out("an_output"), f2.In("an_input")},
		{f2.Out("an_output"), mout},
	}
	for _, b := range binds {
		if err := rt.Bind(b[0], b[1]); err != nil {
			t.Fatal(err)
		}
	}
	var feed []filterc.Value
	for i := 0; i < n; i++ {
		feed = append(feed, u32v(int64(100*i)))
	}
	if err := rt.FeedInput(min, feed); err != nil {
		t.Fatal(err)
	}
	col, err := rt.CollectOutput(mout)
	if err != nil {
		t.Fatal(err)
	}
	return rt, col
}

func runToIdle(t *testing.T, rt *Runtime) {
	t.Helper()
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	st, err := rt.K.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st != sim.RunIdle {
		t.Fatalf("run status = %v", st)
	}
	if dl := rt.K.Blocked(); dl != nil {
		t.Fatalf("unexpected deadlock: %v", dl)
	}
}

func TestAModuleEndToEnd(t *testing.T) {
	rt, col := buildAModule(t, 5, 0)
	runToIdle(t, rt)
	if len(col.Values) != 5 {
		t.Fatalf("collected %d tokens, want 5", len(col.Values))
	}
	for i, v := range col.Values {
		want := int64(100*i) + 1 + 10
		if v.I != want {
			t.Errorf("token %d = %d, want %d", i, v.I, want)
		}
	}
	// Both filters fired 5 times and are Done.
	for _, name := range []string{"filter_1", "filter_2"} {
		f := rt.ActorByName(name)
		if f.Firings() != 5 {
			t.Errorf("%s firings = %d, want 5", name, f.Firings())
		}
		if f.State() != StateDone {
			t.Errorf("%s state = %v, want done", name, f.State())
		}
	}
	if got := rt.ModuleByName("AModule").Step(); got != 5 {
		t.Errorf("steps = %d, want 5", got)
	}
	// Private data observed the last token.
	if v, ok := rt.ActorByName("filter_1").DataVal("a_private_data"); !ok || v.I != 400 {
		t.Errorf("filter_1 private data = %v", v)
	}
}

func TestLinkAccounting(t *testing.T) {
	rt, _ := buildAModule(t, 3, 0)
	runToIdle(t, rt)
	var dataLinks, ctlLinks, dmaLinks int
	for _, l := range rt.Links() {
		switch l.Kind {
		case DataLink:
			dataLinks++
		case ControlLink:
			ctlLinks++
		case DMALink:
			dmaLinks++
		}
		if l.Occupancy() != 0 {
			t.Errorf("link %v not drained", l)
		}
		if l.Pops() != l.Pushes()-uint64(l.Occupancy()) {
			t.Errorf("push/pop mismatch on %v", l)
		}
	}
	if dataLinks != 1 || ctlLinks != 2 || dmaLinks != 2 {
		t.Errorf("link kinds = data:%d ctl:%d dma:%d, want 1/2/2", dataLinks, ctlLinks, dmaLinks)
	}
}

func TestBackpressureWithTinyLinks(t *testing.T) {
	rt, col := buildAModule(t, 8, 1)
	runToIdle(t, rt)
	if len(col.Values) != 8 {
		t.Fatalf("collected %d tokens, want 8", len(col.Values))
	}
}

func TestDebuggerSeesRegistrations(t *testing.T) {
	k := sim.NewKernel()
	dbg := lowdbg.New(k, dbginfo.NewTable())
	// Build directly on the debugger's kernel.
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 4})
	rt := NewRuntime(k, m, dbg)
	mod, _ := rt.NewModule("AModule", nil)
	min, _ := mod.AddPort("module_in", In, u32)
	mout, _ := mod.AddPort("module_out", Out, u32)
	f1, err := rt.NewFilter(mod, FilterSpec{
		Name:    "fwd",
		Source:  `void work() { pedf.io.o[0] = pedf.io.i[0]; }`,
		Inputs:  []PortSpec{{Name: "i", Type: u32}},
		Outputs: []PortSpec{{Name: "o", Type: u32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SetController(mod, ControllerSpec{
		Source: `u32 work() { ACTOR_FIRE("fwd"); WAIT_FOR_ACTOR_SYNC(); if (STEP_INDEX()) return 0; return 1; }`,
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Bind(min, f1.In("i")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Bind(f1.Out("o"), mout); err != nil {
		t.Fatal(err)
	}
	if err := rt.FeedInput(min, []filterc.Value{u32v(1), u32v(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CollectOutput(mout); err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	for _, sym := range append(RegistrationSymbols(), SchedulingSymbols()...) {
		sym := sym
		dbg.BreakFuncInternal(sym, func(ctx *lowdbg.StopCtx) lowdbg.Disposition {
			counts[sym]++
			return lowdbg.DispContinue
		}, nil)
	}
	var pushes, pops int
	dbg.BreakFuncInternal(SymLinkPush, func(ctx *lowdbg.StopCtx) lowdbg.Disposition {
		pushes++
		return lowdbg.DispContinue
	}, nil)
	dbg.BreakFuncInternal(SymLinkPop, func(ctx *lowdbg.StopCtx) lowdbg.Disposition {
		pops++
		return lowdbg.DispContinue
	}, nil)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	ev := dbg.Continue()
	if ev.Kind != lowdbg.StopDone || ev.Deadlock != nil {
		t.Fatalf("stop = %v (deadlock %v)", ev, ev.Deadlock)
	}
	if counts[SymRegisterModule] != 1 || counts[SymRegisterFilter] != 1 ||
		counts[SymRegisterController] != 1 {
		t.Errorf("registration counts = %v", counts)
	}
	if counts[SymRegisterPort] != 4 { // module in+out, filter i+o
		t.Errorf("port registrations = %d, want 4", counts[SymRegisterPort])
	}
	if counts[SymBind] != 2 { // env->fwd, fwd->env (module ports alias through)
		t.Errorf("bind registrations = %d, want 2", counts[SymBind])
	}
	if counts[SymStepBegin] != 2 || counts[SymStepEnd] != 2 {
		t.Errorf("step hooks = %d/%d, want 2/2", counts[SymStepBegin], counts[SymStepEnd])
	}
	if counts[SymActorStart] != 2 || counts[SymActorSync] != 2 {
		t.Errorf("start/sync hooks = %d/%d, want 2/2", counts[SymActorStart], counts[SymActorSync])
	}
	// Pushes: 2 from the feeder + 2 from the filter. Pops: 2 by the
	// filter + 2 by the sink + 1 blocked sink attempt (the pop hook fires
	// at function entry, before the FIFO wait — just as a GDB breakpoint
	// at the function address would).
	if pushes != 4 || pops != 5 {
		t.Errorf("push/pop hooks = %d/%d, want 4/5", pushes, pops)
	}
}

func TestWorkSymbolCatch(t *testing.T) {
	k := sim.NewKernel()
	dbg := lowdbg.New(k, dbginfo.NewTable())
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 2})
	rt := NewRuntime(k, m, dbg)
	mod, _ := rt.NewModule("mod", nil)
	min, _ := mod.AddPort("in", In, u32)
	mout, _ := mod.AddPort("out", Out, u32)
	f, _ := rt.NewFilter(mod, FilterSpec{
		Name:    "pipe",
		Source:  `void work() { pedf.io.o[0] = pedf.io.i[0] * 2; }`,
		Inputs:  []PortSpec{{Name: "i", Type: u32}},
		Outputs: []PortSpec{{Name: "o", Type: u32}},
	})
	rt.SetController(mod, ControllerSpec{
		Source: `u32 work() { ACTOR_FIRE("pipe"); WAIT_FOR_ACTOR_SYNC(); if (STEP_INDEX()) return 0; return 1; }`,
	})
	rt.Bind(min, f.In("i"))
	rt.Bind(f.Out("o"), mout)
	rt.FeedInput(min, []filterc.Value{u32v(21), u32v(22)})
	rt.CollectOutput(mout)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	// The paper's `filter pipe catch work`: breakpoint on the mangled
	// WORK symbol.
	bp, err := dbg.BreakFunc("PipeFilter_work_function")
	if err != nil {
		t.Fatal(err)
	}
	ev := dbg.Continue()
	if ev.Kind != lowdbg.StopBreakpoint || ev.Bp != bp {
		t.Fatalf("stop = %v", ev)
	}
	if lowdbg.ArgString(ev.Args, "self") != "pipe" {
		t.Errorf("args = %v", ev.Args)
	}
	if f.State() != StateRunning {
		t.Errorf("pipe state at work entry = %v, want running", f.State())
	}
	ev = dbg.Continue()
	if ev.Kind != lowdbg.StopBreakpoint {
		t.Fatalf("second stop = %v", ev)
	}
	if ev = dbg.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("final stop = %v", ev)
	}
}

func TestDeadlockWhenInputStarves(t *testing.T) {
	k := sim.NewKernel()
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 2})
	rt := NewRuntime(k, m, nil)
	mod, _ := rt.NewModule("mod", nil)
	min, _ := mod.AddPort("in", In, u32)
	mout, _ := mod.AddPort("out", Out, u32)
	f, _ := rt.NewFilter(mod, FilterSpec{
		Name: "starved",
		// Consumes two tokens per firing but only one arrives.
		Source:  `void work() { pedf.io.o[0] = pedf.io.i[0] + pedf.io.i[1]; }`,
		Inputs:  []PortSpec{{Name: "i", Type: u32}},
		Outputs: []PortSpec{{Name: "o", Type: u32}},
	})
	rt.SetController(mod, ControllerSpec{
		Source: `u32 work() { ACTOR_FIRE("starved"); WAIT_FOR_ACTOR_SYNC(); return 0; }`,
	})
	rt.Bind(min, f.In("i"))
	rt.Bind(f.Out("o"), mout)
	rt.FeedInput(min, []filterc.Value{u32v(1)})
	rt.CollectOutput(mout)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	st, err := k.Run()
	if err != nil || st != sim.RunIdle {
		t.Fatalf("run = %v %v", st, err)
	}
	dl := k.Blocked()
	if dl == nil {
		t.Fatal("no deadlock detected")
	}
	if f.BlockedOn() != "pop:i" {
		t.Errorf("filter blocked on %q, want pop:i", f.BlockedOn())
	}
	if f.State() != StateRunning {
		t.Errorf("state = %v, want running (stuck inside work)", f.State())
	}
	// Untie the deadlock by injecting a token (the debugger's execution
	// alteration), then the run completes.
	f.In("i").Link().InjectToken(u32v(41))
	st, err = k.Run()
	if err != nil || st != sim.RunIdle {
		t.Fatalf("second run = %v %v", st, err)
	}
	if k.Blocked() != nil {
		t.Errorf("still deadlocked: %v", k.Blocked())
	}
}

func TestTokenDropAndReplace(t *testing.T) {
	k := sim.NewKernel()
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 2})
	rt := NewRuntime(k, m, nil)
	mod, _ := rt.NewModule("mod", nil)
	min, _ := mod.AddPort("in", In, u32)
	mout, _ := mod.AddPort("out", Out, u32)
	f, _ := rt.NewFilter(mod, FilterSpec{
		Name:    "inc",
		Source:  `void work() { pedf.io.o[0] = pedf.io.i[0] + 1; }`,
		Inputs:  []PortSpec{{Name: "i", Type: u32}},
		Outputs: []PortSpec{{Name: "o", Type: u32}},
	})
	rt.SetController(mod, ControllerSpec{
		Source: `u32 work() { ACTOR_FIRE("inc"); WAIT_FOR_ACTOR_SYNC(); if (STEP_INDEX()) return 0; return 1; }`,
	})
	rt.Bind(min, f.In("i"))
	rt.Bind(f.Out("o"), mout)
	rt.FeedInput(min, nil) // no environment feed; tokens injected below
	col, _ := rt.CollectOutput(mout)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	envLink := f.In("i").Link()
	// Inject three tokens, replace the head, drop the middle one.
	envLink.InjectToken(u32v(5))
	envLink.InjectToken(u32v(6))
	envLink.InjectToken(u32v(7))
	if !envLink.ReplaceToken(0, u32v(7000)) {
		t.Error("ReplaceToken failed")
	}
	if !envLink.DropToken(1) {
		t.Error("DropToken failed")
	}
	if envLink.DropToken(99) || envLink.ReplaceToken(99, u32v(0)) {
		t.Error("out-of-range token ops succeeded")
	}
	if tok, ok := envLink.Peek(0); !ok || tok.Val.I != 7000 {
		t.Fatalf("Peek(0) = %v %v", tok, ok)
	}
	if _, ok := envLink.Peek(-1); ok {
		t.Error("Peek(-1) succeeded")
	}
	st, err := rt.K.Run()
	if err != nil || st != sim.RunIdle {
		t.Fatalf("run = %v %v", st, err)
	}
	if len(col.Values) != 2 {
		t.Fatalf("collected = %d, want 2", len(col.Values))
	}
	if col.Values[0].I != 7001 || col.Values[1].I != 8 {
		t.Errorf("outputs = %v, want [7001 8]", col.Values)
	}
}

func TestCooperationSuppressesDataHooks(t *testing.T) {
	// With cooperation limited to filter_2, push/pop hooks fire only for
	// its link operations.
	k := sim.NewKernel()
	dbg := lowdbg.New(k, dbginfo.NewTable())
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 4})
	rt := NewRuntime(k, m, dbg)
	mod, _ := rt.NewModule("mod", nil)
	min, _ := mod.AddPort("in", In, u32)
	mout, _ := mod.AddPort("out", Out, u32)
	fwd := `void work() { pedf.io.o[0] = pedf.io.i[0]; }`
	fa, _ := rt.NewFilter(mod, FilterSpec{Name: "fa", Source: fwd,
		Inputs: []PortSpec{{Name: "i", Type: u32}}, Outputs: []PortSpec{{Name: "o", Type: u32}}})
	fb, _ := rt.NewFilter(mod, FilterSpec{Name: "fb", Source: fwd,
		Inputs: []PortSpec{{Name: "i", Type: u32}}, Outputs: []PortSpec{{Name: "o", Type: u32}}})
	rt.SetController(mod, ControllerSpec{
		Source: `u32 work() { ACTOR_FIRE("fa"); ACTOR_FIRE("fb"); WAIT_FOR_ACTOR_SYNC(); if (STEP_INDEX()) return 0; return 1; }`,
	})
	rt.Bind(min, fa.In("i"))
	rt.Bind(fa.Out("o"), fb.In("i"))
	rt.Bind(fb.Out("o"), mout)
	rt.FeedInput(min, []filterc.Value{u32v(1), u32v(2)})
	rt.CollectOutput(mout)
	rt.SetCooperation([]string{"fb"})

	var hooked []string
	for _, sym := range DataSymbols() {
		dbg.BreakFuncInternal(sym, func(ctx *lowdbg.StopCtx) lowdbg.Disposition {
			hooked = append(hooked, lowdbg.ArgString(ctx.Args, "src")+">"+lowdbg.ArgString(ctx.Args, "dst"))
			return lowdbg.DispContinue
		}, nil)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if ev := dbg.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("stop = %v", ev)
	}
	if len(hooked) == 0 {
		t.Fatal("no data hooks at all")
	}
	for _, h := range hooked {
		// Every reported operation involves fb as the acting side:
		// fb pops from fa>fb, fb pushes on fb>env.
		if h != "fa>fb" && h != "fb>env" {
			t.Errorf("unexpected hooked operation %q", h)
		}
	}
}

func TestNativeFilterAndController(t *testing.T) {
	k := sim.NewKernel()
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 2})
	rt := NewRuntime(k, m, nil)
	mod, _ := rt.NewModule("mod", nil)
	min, _ := mod.AddPort("in", In, u32)
	mout, _ := mod.AddPort("out", Out, u32)
	f, err := rt.NewFilter(mod, FilterSpec{
		Name: "dbl",
		Work: func(c *WorkCtx) error {
			v, err := c.Read("i")
			if err != nil {
				return err
			}
			c.Compute(3)
			return c.Write("o", u32v(v.I*2))
		},
		Inputs:  []PortSpec{{Name: "i", Type: u32}},
		Outputs: []PortSpec{{Name: "o", Type: u32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	if _, err := rt.SetController(mod, ControllerSpec{
		Ctl: func(c *CtlCtx) (bool, error) {
			if err := c.Fire("dbl"); err != nil {
				return false, err
			}
			c.WaitInit()
			c.WaitSync()
			steps++
			return steps < 3, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	rt.Bind(min, f.In("i"))
	rt.Bind(f.Out("o"), mout)
	rt.FeedInput(min, []filterc.Value{u32v(5), u32v(6), u32v(7)})
	col, _ := rt.CollectOutput(mout)
	runToIdle(t, rt)
	if len(col.Values) != 3 || col.Values[0].I != 10 || col.Values[2].I != 14 {
		t.Errorf("outputs = %v", col.Values)
	}
}

func TestBuilderErrors(t *testing.T) {
	k := sim.NewKernel()
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 2})
	rt := NewRuntime(k, m, nil)
	mod, err := rt.NewModule("mod", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewModule("mod", nil); err == nil {
		t.Error("duplicate module accepted")
	}
	if _, err := mod.AddPort("p", In, u32); err != nil {
		t.Fatal(err)
	}
	if _, err := mod.AddPort("p", In, u32); err == nil {
		t.Error("duplicate module port accepted")
	}
	if _, err := rt.NewFilter(mod, FilterSpec{Name: "f"}); err == nil {
		t.Error("filter without body accepted")
	}
	if _, err := rt.NewFilter(mod, FilterSpec{Name: "bad", Source: "not c"}); err == nil {
		t.Error("unparsable filter accepted")
	}
	if _, err := rt.NewFilter(mod, FilterSpec{Name: "noWork", Source: "void other() {}"}); err == nil {
		t.Error("filter without work() accepted")
	}
	f, err := rt.NewFilter(mod, FilterSpec{Name: "f", Source: "void work() {}",
		Inputs: []PortSpec{{Name: "i", Type: u32}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewFilter(mod, FilterSpec{Name: "f", Source: "void work() {}"}); err == nil {
		t.Error("duplicate filter accepted")
	}
	if _, err := rt.SetController(mod, ControllerSpec{}); err == nil {
		t.Error("controller without body accepted")
	}
	if _, err := rt.SetController(mod, ControllerSpec{Source: "u32 work() { return 0; }"}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SetController(mod, ControllerSpec{Source: "u32 work() { return 0; }"}); err == nil {
		t.Error("second controller accepted")
	}
	// Type mismatch on bind.
	u8 := filterc.Scalar(filterc.U8)
	p8 := &Port{ActorName: "x", Name: "o", Dir: Out, Type: u8}
	if err := rt.Bind(p8, f.In("i")); err == nil {
		t.Error("type-mismatched bind accepted")
	}
	if err := rt.Bind(nil, f.In("i")); err == nil {
		t.Error("nil bind accepted")
	}
	// Unbound input must fail elaboration.
	if err := rt.Start(); err == nil {
		t.Error("Start with unbound input succeeded")
	}
}

func TestIOErrors(t *testing.T) {
	k := sim.NewKernel()
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 2})
	rt := NewRuntime(k, m, nil)
	mod, _ := rt.NewModule("mod", nil)
	min, _ := mod.AddPort("in", In, u32)
	mout, _ := mod.AddPort("out", Out, u32)
	f, _ := rt.NewFilter(mod, FilterSpec{
		Name:    "bad",
		Source:  `void work() { pedf.io.o[1] = pedf.io.i[0]; }`, // non-sequential write
		Inputs:  []PortSpec{{Name: "i", Type: u32}},
		Outputs: []PortSpec{{Name: "o", Type: u32}},
	})
	rt.SetController(mod, ControllerSpec{
		Source: `u32 work() { ACTOR_FIRE("bad"); WAIT_FOR_ACTOR_SYNC(); return 0; }`,
	})
	rt.Bind(min, f.In("i"))
	rt.Bind(f.Out("o"), mout)
	rt.FeedInput(min, []filterc.Value{u32v(1)})
	rt.CollectOutput(mout)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	st, err := k.Run()
	if st != sim.RunError || err == nil {
		t.Fatalf("run = %v %v, want error (non-sequential write)", st, err)
	}
}

func TestHierarchicalModules(t *testing.T) {
	// top contains two sub-modules chained through their external ports,
	// mirroring the paper's front -> pred decomposition.
	k := sim.NewKernel()
	m := mach.New(k, mach.Config{Clusters: 2, PEsPerCluster: 4})
	rt := NewRuntime(k, m, nil)
	top, _ := rt.NewModule("top", nil)
	tin, _ := top.AddPort("in", In, u32)
	tout, _ := top.AddPort("out", Out, u32)

	mkSub := func(name string, delta int64) (*Module, *Port, *Port) {
		sub, err := rt.NewModule(name, top)
		if err != nil {
			t.Fatal(err)
		}
		sin, _ := sub.AddPort("in", In, u32)
		sout, _ := sub.AddPort("out", Out, u32)
		f, err := rt.NewFilter(sub, FilterSpec{
			Name:   name + "_f",
			Source: fmt.Sprintf(`void work() { pedf.io.o[0] = pedf.io.i[0] + %d; }`, delta),
			Inputs: []PortSpec{{Name: "i", Type: u32}}, Outputs: []PortSpec{{Name: "o", Type: u32}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.SetController(sub, ControllerSpec{
			Source: fmt.Sprintf(`u32 work() { ACTOR_FIRE("%s_f"); WAIT_FOR_ACTOR_SYNC(); if (STEP_INDEX() + 1 >= 4) return 0; return 1; }`, name),
		}); err != nil {
			t.Fatal(err)
		}
		rt.Bind(sin, f.In("i"))
		rt.Bind(f.Out("o"), sout)
		return sub, sin, sout
	}
	_, ain, aout := mkSub("front", 1)
	_, bin, bout := mkSub("pred", 100)
	// Chain: top.in -> front.in; front.out -> pred.in; pred.out -> top.out.
	rt.Bind(tin, ain)
	rt.Bind(aout, bin)
	rt.Bind(bout, tout)
	// Top module has a trivial controller (no filters of its own).
	rt.SetController(top, ControllerSpec{Source: `u32 work() { return 0; }`})
	rt.FeedInput(tin, []filterc.Value{u32v(1), u32v(2), u32v(3), u32v(4)})
	col, _ := rt.CollectOutput(tout)
	runToIdle(t, rt)
	if len(col.Values) != 4 {
		t.Fatalf("collected %d, want 4", len(col.Values))
	}
	for i, v := range col.Values {
		if v.I != int64(i+1)+101 {
			t.Errorf("out[%d] = %d, want %d", i, v.I, int64(i+1)+101)
		}
	}
	if len(top.Sub) != 2 {
		t.Errorf("top has %d submodules", len(top.Sub))
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Two identical runs produce identical output sequences and end times.
	run := func() ([]int64, sim.Time) {
		rt, col := buildAModule(t, 6, 2)
		runToIdle(t, rt)
		var out []int64
		for _, v := range col.Values {
			out = append(out, v.I)
		}
		return out, rt.K.Now()
	}
	o1, t1 := run()
	o2, t2 := run()
	if fmt.Sprint(o1) != fmt.Sprint(o2) || t1 != t2 {
		t.Errorf("nondeterministic: %v@%v vs %v@%v", o1, t1, o2, t2)
	}
}

func TestIntrinsicMisuse(t *testing.T) {
	// ACTOR_START in a plain filter must error out.
	k := sim.NewKernel()
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 2})
	rt := NewRuntime(k, m, nil)
	mod, _ := rt.NewModule("mod", nil)
	min, _ := mod.AddPort("in", In, u32)
	mout, _ := mod.AddPort("out", Out, u32)
	f, _ := rt.NewFilter(mod, FilterSpec{
		Name:    "rogue",
		Source:  `void work() { ACTOR_START("other"); pedf.io.o[0] = pedf.io.i[0]; }`,
		Inputs:  []PortSpec{{Name: "i", Type: u32}},
		Outputs: []PortSpec{{Name: "o", Type: u32}},
	})
	rt.SetController(mod, ControllerSpec{
		Source: `u32 work() { ACTOR_FIRE("rogue"); WAIT_FOR_ACTOR_SYNC(); return 0; }`,
	})
	rt.Bind(min, f.In("i"))
	rt.Bind(f.Out("o"), mout)
	rt.FeedInput(min, []filterc.Value{u32v(1)})
	rt.CollectOutput(mout)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	st, err := k.Run()
	if st != sim.RunError || err == nil {
		t.Fatalf("run = %v %v, want error", st, err)
	}
}

func TestPlaceActorAffectsTransferCosts(t *testing.T) {
	// The same two-filter pipeline mapped (a) onto one cluster and
	// (b) across clusters must show different simulated durations, since
	// inter-cluster transfers go through the slower L2.
	build := func(sameCluster bool) sim.Time {
		k := sim.NewKernel()
		m := mach.New(k, mach.Config{Clusters: 2, PEsPerCluster: 4})
		rt := NewRuntime(k, m, nil)
		mod, _ := rt.NewModule("mod", nil)
		min, _ := mod.AddPort("in", In, u32)
		mout, _ := mod.AddPort("out", Out, u32)
		fwd := `void work() { pedf.io.o[0] = pedf.io.i[0]; }`
		fa, _ := rt.NewFilter(mod, FilterSpec{Name: "fa", Source: fwd,
			Inputs: []PortSpec{{Name: "i", Type: u32}}, Outputs: []PortSpec{{Name: "o", Type: u32}}})
		fb, _ := rt.NewFilter(mod, FilterSpec{Name: "fb", Source: fwd,
			Inputs: []PortSpec{{Name: "i", Type: u32}}, Outputs: []PortSpec{{Name: "o", Type: u32}}})
		rt.SetController(mod, ControllerSpec{
			Source: `u32 work() { ACTOR_FIRE("fa"); ACTOR_FIRE("fb"); WAIT_FOR_ACTOR_SYNC(); if (STEP_INDEX() + 1 >= 8) return 0; return 1; }`,
		})
		rt.Bind(min, fa.In("i"))
		rt.Bind(fa.Out("o"), fb.In("i"))
		rt.Bind(fb.Out("o"), mout)
		var feed []filterc.Value
		for i := 0; i < 8; i++ {
			feed = append(feed, u32v(int64(i)))
		}
		rt.FeedInput(min, feed)
		rt.CollectOutput(mout)
		if err := rt.PlaceActor("fa", 0); err != nil {
			t.Fatal(err)
		}
		target := 1 // same cluster as PE 0
		if !sameCluster {
			target = 4 // first PE of cluster 1
		}
		if err := rt.PlaceActor("fb", target); err != nil {
			t.Fatal(err)
		}
		if fa.PE.ID != 0 || fb.PE.ID != target {
			t.Fatalf("placement not applied: fa=%v fb=%v", fa.PE, fb.PE)
		}
		runToIdle(t, rt)
		return k.Now()
	}
	near := build(true)
	far := build(false)
	if near >= far {
		t.Errorf("same-cluster mapping (%v) should beat cross-cluster (%v)", near, far)
	}
}

func TestPlaceActorErrors(t *testing.T) {
	k := sim.NewKernel()
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 2})
	rt := NewRuntime(k, m, nil)
	mod, _ := rt.NewModule("mod", nil)
	mout, _ := mod.AddPort("out", Out, u32)
	f, _ := rt.NewFilter(mod, FilterSpec{Name: "src",
		Source: `void work() { pedf.io.o[0] = 1; }`, Outputs: []PortSpec{{Name: "o", Type: u32}}})
	if err := rt.PlaceActor("ghost", 0); err == nil {
		t.Error("placing unknown actor accepted")
	}
	if err := rt.PlaceActor("src", 99); err == nil {
		t.Error("placing on unknown PE accepted")
	}
	if err := rt.PlaceActor("src", -1); err != nil {
		t.Errorf("placing on host rejected: %v", err)
	}
	if !f.PE.IsHost() {
		t.Error("actor not moved to host")
	}
	rt.SetController(mod, ControllerSpec{Source: `u32 work() { ACTOR_FIRE("src"); WAIT_FOR_ACTOR_SYNC(); return 0; }`})
	rt.Bind(f.Out("o"), mout)
	rt.CollectOutput(mout)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rt.PlaceActor("src", 0); err == nil {
		t.Error("re-placing after Start accepted")
	}
}

func TestIOAvailableIntrinsic(t *testing.T) {
	// IO_AVAILABLE lets filter code test for queued tokens without
	// blocking — the dynamic-dataflow style of data-dependent firing.
	k := sim.NewKernel()
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 2})
	rt := NewRuntime(k, m, nil)
	mod, _ := rt.NewModule("mod", nil)
	min, _ := mod.AddPort("in", In, u32)
	mout, _ := mod.AddPort("out", Out, u32)
	f, _ := rt.NewFilter(mod, FilterSpec{
		Name: "drain",
		// Consume every available token per firing; emit the count.
		Source: `void work() {
	u32 n = IO_AVAILABLE("i");
	u32 s = 0;
	for (u32 k = 0; k < n; k++) {
		s = s + pedf.io.i[k];
	}
	pedf.io.o[0] = s * 1000 + n;
}`,
		Inputs:  []PortSpec{{Name: "i", Type: u32}},
		Outputs: []PortSpec{{Name: "o", Type: u32}},
	})
	rt.SetController(mod, ControllerSpec{
		Source: `u32 work() { ACTOR_FIRE("drain"); WAIT_FOR_ACTOR_SYNC(); if (STEP_INDEX()) return 0; return 1; }`,
	})
	rt.Bind(min, f.In("i"))
	rt.Bind(f.Out("o"), mout)
	rt.FeedInput(min, nil)
	col, _ := rt.CollectOutput(mout)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	// Preload three tokens before the first firing.
	f.In("i").Link().InjectToken(u32v(5))
	f.In("i").Link().InjectToken(u32v(6))
	f.In("i").Link().InjectToken(u32v(7))
	st, err := k.Run()
	if err != nil || st != sim.RunIdle {
		t.Fatalf("run = %v %v", st, err)
	}
	if len(col.Values) != 2 {
		t.Fatalf("collected %d", len(col.Values))
	}
	if col.Values[0].I != 18*1000+3 {
		t.Errorf("first firing = %d, want 18003", col.Values[0].I)
	}
	if col.Values[1].I != 0 {
		t.Errorf("second firing = %d, want 0 (nothing available)", col.Values[1].I)
	}
}

func TestFreeRunningFilterUntilSync(t *testing.T) {
	// The paper's step protocol: a started filter keeps executing WORK
	// firings until ACTOR_SYNC requests it to stop at a step boundary.
	// A source filter (no inputs) started early and synced late must
	// fire more than once within a single controller step.
	k := sim.NewKernel()
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 2})
	rt := NewRuntime(k, m, nil)
	mod, _ := rt.NewModule("mod", nil)
	mout, _ := mod.AddPort("out", Out, u32)
	src, _ := rt.NewFilter(mod, FilterSpec{
		Name: "src",
		Source: `void work() {
	pedf.data.n = pedf.data.n + 1;
	pedf.io.o[0] = pedf.data.n;
}`,
		Data:    []VarSpec{{Name: "n", Type: u32}},
		Outputs: []PortSpec{{Name: "o", Type: u32}},
	})
	rt.SetController(mod, ControllerSpec{
		// Busy-wait loop between START and SYNC: the filter free-runs
		// meanwhile (until the link backpressure would stop it).
		Source: `u32 work() {
	ACTOR_START("src");
	WAIT_FOR_ACTOR_INIT();
	u32 spin = 0;
	while (spin < 2000) { spin = spin + 1; }
	ACTOR_SYNC("src");
	WAIT_FOR_ACTOR_SYNC();
	return 0;
}`,
	})
	rt.Bind(src.Out("o"), mout)
	col, _ := rt.CollectOutput(mout)
	runToIdle(t, rt)
	if src.Firings() < 2 {
		t.Errorf("free-running source fired only %d time(s)", src.Firings())
	}
	if uint64(len(col.Values)) != src.Firings() {
		t.Errorf("collected %d tokens for %d firings", len(col.Values), src.Firings())
	}
	// Tokens arrive in firing order.
	for i, v := range col.Values {
		if v.I != int64(i+1) {
			t.Fatalf("token %d = %d, want %d", i, v.I, i+1)
		}
	}
}

func TestActorFireIsAtomicOneFiring(t *testing.T) {
	// ACTOR_FIRE sets the sync request before the filter even begins, so
	// a fast source fires exactly once per step — no race with the
	// controller (the hazard the paper's merged command avoids).
	k := sim.NewKernel()
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 2})
	rt := NewRuntime(k, m, nil)
	mod, _ := rt.NewModule("mod", nil)
	mout, _ := mod.AddPort("out", Out, u32)
	src, _ := rt.NewFilter(mod, FilterSpec{
		Name:    "src",
		Source:  `void work() { pedf.io.o[0] = 7; }`,
		Outputs: []PortSpec{{Name: "o", Type: u32}},
	})
	rt.SetController(mod, ControllerSpec{
		Source: `u32 work() {
	ACTOR_FIRE("src");
	WAIT_FOR_ACTOR_SYNC();
	if (STEP_INDEX() + 1 >= 3) return 0;
	return 1;
}`,
	})
	rt.Bind(src.Out("o"), mout)
	col, _ := rt.CollectOutput(mout)
	runToIdle(t, rt)
	if src.Firings() != 3 {
		t.Errorf("firings = %d, want exactly 3 (one per step)", src.Firings())
	}
	if len(col.Values) != 3 {
		t.Errorf("collected %d", len(col.Values))
	}
}

func TestWorkSymbolNames(t *testing.T) {
	rt, _ := buildAModule(t, 1, 0)
	f := rt.ActorByName("filter_1")
	if WorkSymbol(f) != "Filter_1Filter_work_function" {
		t.Errorf("filter work symbol = %q", WorkSymbol(f))
	}
	c := rt.ModuleByName("AModule").Controller
	if WorkSymbol(c) != "_component_AModuleModule_anon_0_work" {
		t.Errorf("controller work symbol = %q", WorkSymbol(c))
	}
	// Symbol table carries them.
	if rt.Syms.Lookup("Filter_1Filter_work_function") == nil {
		t.Error("work symbol not in table")
	}
}

// TestWaitEventNames pins the link wait-event names that stall and
// deadlock reports print.
func TestWaitEventNames(t *testing.T) {
	for _, id := range []int{1, 9, 13, 100, 12345} {
		ne, nf := waitEventNames(id)
		if ne != fmt.Sprintf("link%d.notEmpty", id) || nf != fmt.Sprintf("link%d.notFull", id) {
			t.Errorf("link %d: events named %q and %q", id, ne, nf)
		}
	}
}
