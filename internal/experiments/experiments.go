// Package experiments regenerates every figure and evaluated claim of
// the paper (the per-experiment index of DESIGN.md §5): the platform
// inventory (F1), the AModule graph (F2), the two-level reconstruction
// fidelity check (F3), the Figure 4 token-accumulation snapshot (F4),
// the four case-study command transcripts (C1–C4), the quantified
// bug-localization comparison (Q1), the breakpoint-intrusiveness
// measurements (P1) and the determinism check (P2).
//
// cmd/experiments is a thin wrapper; EXPERIMENTS.md records one full run.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"dfdbg/internal/cli"
	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/mind"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/script"
	"dfdbg/internal/sim"
	"dfdbg/internal/stack"
)

// pedfValue aliases the token payload type for readability.
type pedfValue = filterc.Value

func u32v(i int64) filterc.Value { return filterc.Int(filterc.U32, i) }

// Runner executes experiments, writing human-oriented reports to W.
type Runner struct {
	W io.Writer
	// Quick shrinks workloads (used by tests); default full size.
	Quick bool
}

func (r *Runner) printf(format string, args ...any) {
	fmt.Fprintf(r.W, format, args...)
}

func (r *Runner) section(id, title string) {
	r.printf("\n==== %s — %s ====\n", id, title)
}

// All lists the experiment ids in canonical order.
func All() []string {
	return []string{"F1", "F2", "F3", "F4", "C1", "C2", "C3", "C4", "Q1", "P1", "P2"}
}

// Run executes one experiment by id.
func (r *Runner) Run(id string) error {
	switch strings.ToUpper(id) {
	case "F1":
		return r.F1()
	case "F2":
		return r.F2()
	case "F3":
		return r.F3()
	case "F4":
		return r.F4()
	case "C1":
		return r.C1()
	case "C2":
		return r.C2()
	case "C3":
		return r.C3()
	case "C4":
		return r.C4()
	case "Q1":
		return r.Q1()
	case "P1":
		return r.P1()
	case "P2":
		return r.P2()
	default:
		return fmt.Errorf("experiments: unknown id %q (want one of %s)",
			id, strings.Join(All(), ", "))
	}
}

// RunAll executes every experiment.
func (r *Runner) RunAll() error {
	for _, id := range All() {
		if err := r.Run(id); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

func (r *Runner) params() h264.Params {
	if r.Quick {
		return h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	}
	return h264.Params{W: 48, H: 48, QP: 8, Seed: 7}
}

// ---- F1: Figure 1, platform architecture ----

// F1 prints the P2012-like platform inventory and demonstrates the
// memory-hierarchy cost model with one transfer per level.
func (r *Runner) F1() error {
	r.section("F1", "P2012 platform model (paper Fig. 1)")
	k := sim.NewKernel()
	defer k.Shutdown()
	m := mach.New(k, mach.Config{})
	r.printf("%s", m.Describe())
	type row struct {
		name  string
		src   *mach.PE
		dst   *mach.PE
		words int
	}
	rows := []row{
		{"intra-cluster (L1)", m.PEByID(0), m.PEByID(1), 16},
		{"inter-cluster (L2)", m.PEByID(0), m.PEByID(16), 16},
		{"host->fabric (DMA+L3)", m.Host, m.PEByID(0), 16},
	}
	r.printf("\n%-24s %10s\n", "transfer (16 words)", "cost")
	for _, rw := range rows {
		r.printf("%-24s %10s\n", rw.name, m.TransferCost(rw.src, rw.dst, rw.words))
	}
	// Run a workload and show the counters.
	m.SpawnOn(m.PEByID(0), "f1.workload", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			m.Transfer(p, m.PEByID(0), m.PEByID(1), 4)
			m.Transfer(p, m.PEByID(0), m.PEByID(16), 4)
			m.Transfer(p, m.Host, m.PEByID(0), 4)
		}
	})
	if _, err := k.Run(); err != nil {
		return err
	}
	r.printf("\nafter a 3x100-transfer workload (t=%s):\n", k.Now())
	for _, mem := range m.MemStats() {
		if mem.Reads+mem.Writes > 0 {
			r.printf("  %-14s reads=%-6d writes=%d\n", mem.Name, mem.Reads, mem.Writes)
		}
	}
	r.printf("  DMA transfers=%d words=%d\n", m.DMA.Transfers, m.DMA.Words)
	return nil
}

// ---- F2: Figure 2, AModule graph from the paper's ADL ----

// paperADL is the Section IV-A listing (cmd ports unified to U8).
const paperADL = `
@Module
composite AModule {
	contains as controller {
		output U8 as cmd_out_1;
		output U8 as cmd_out_2;
		source ctrl_source.c;
	}
	input U32 as module_in;
	output U32 as module_out;
	contains AFilter as filter_1;
	contains AFilter as filter_2;
	binds controller.cmd_out_1 to filter_1.cmd_in;
	binds controller.cmd_out_2 to filter_2.cmd_in;
	binds this.module_in to filter_1.an_input;
	binds filter_1.an_output to filter_2.an_input;
	binds filter_2.an_output to this.module_out;
}
@Filter
primitive AFilter {
	data      stddefs.h:U32 a_private_data;
	attribute stddefs.h:U32 an_attribute = 1;
	source    the_source.c;
	input stddefs.h:U32 as an_input;
	input stddefs.h:U8 as cmd_in;
	output stddefs.h:U32 as an_output;
}
`

var paperSources = map[string]string{
	"the_source.c": `void work() {
	u32 c = pedf.io.cmd_in[0];
	u32 v = pedf.io.an_input[0];
	pedf.data.a_private_data = v;
	pedf.io.an_output[0] = v + pedf.attribute.an_attribute + c - 1;
}`,
	"ctrl_source.c": `u32 work() {
	pedf.io.cmd_out_1[0] = 1;
	pedf.io.cmd_out_2[0] = 1;
	ACTOR_START("filter_1");
	ACTOR_START("filter_2");
	WAIT_FOR_ACTOR_INIT();
	ACTOR_SYNC("filter_1");
	ACTOR_SYNC("filter_2");
	WAIT_FOR_ACTOR_SYNC();
	if (STEP_INDEX() + 1 >= 4) return 0;
	return 1;
}`,
}

// F2 elaborates the paper's AModule description, runs it under the
// debugger and prints the graph the debugger *reconstructed* from the
// intercepted initialization calls.
func (r *Runner) F2() error {
	r.section("F2", "AModule dataflow graph (paper Fig. 2)")
	f, err := mind.Parse("amodule.adl", paperADL)
	if err != nil {
		return err
	}
	k := sim.NewKernel()
	defer k.Shutdown()
	low := lowdbg.New(k, dbginfo.NewTable())
	d := core.Attach(low)
	m := mach.New(k, mach.Config{Clusters: 2, PEsPerCluster: 4})
	rt := pedf.NewRuntime(k, m, low)
	el := &mind.Elaborator{Sources: paperSources}
	mod, err := el.Instantiate(rt, f, "AModule")
	if err != nil {
		return err
	}
	var feed []pedfValue
	for i := 0; i < 4; i++ {
		feed = append(feed, u32v(int64(10*i)))
	}
	if err := rt.FeedInput(mod.Port("module_in"), feed); err != nil {
		return err
	}
	col, err := rt.CollectOutput(mod.Port("module_out"))
	if err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}
	if ev := low.Continue(); ev.Kind != lowdbg.StopDone || ev.Deadlock != nil {
		return fmt.Errorf("F2 run ended with %v", ev)
	}
	r.printf("reconstructed graph (Graphviz DOT):\n%s", d.GraphDOT())
	r.printf("outputs: ")
	for _, v := range col.Values {
		r.printf("%d ", v.I)
	}
	r.printf("\n")
	return nil
}

// ---- F3: Figure 3, two-level reconstruction fidelity ----

// F3 builds the decoder under the debugger and verifies the dataflow
// layer's reconstructed model (built only from intercepted calls)
// matches the framework's ground truth: actors, links, kinds, and link
// occupancies at several stops.
func (r *Runner) F3() error {
	r.section("F3", "two-level debugging fidelity (paper Fig. 3)")
	st, err := stack.Recipe{Params: r.params()}.Build()
	if err != nil {
		return err
	}
	defer st.Shutdown()
	// Ground truth vs reconstruction: actors.
	truthActors := make(map[string]string)
	for _, a := range st.RT.Actors() {
		truthActors[a.Name] = a.Role.String()
	}
	reconActors := 0
	for _, a := range st.D.Actors() {
		if a.Kind == core.KindFilter || a.Kind == core.KindController {
			if truthActors[a.Name] == "" {
				return fmt.Errorf("phantom actor %q in the reconstruction", a.Name)
			}
			reconActors++
		}
	}
	if reconActors != len(truthActors) {
		return fmt.Errorf("reconstructed %d actors, framework has %d", reconActors, len(truthActors))
	}
	// Links.
	truthLinks := make(map[string]string)
	for _, l := range st.RT.Links() {
		truthLinks[l.Src.Qualified()+" -> "+l.Dst.Qualified()] = l.Kind.String()
	}
	for _, l := range st.D.Links() {
		key := l.Src.Qualified() + " -> " + l.Dst.Qualified()
		if truthLinks[key] != l.Kind {
			return fmt.Errorf("link %s: reconstructed kind %q, truth %q", key, l.Kind, truthLinks[key])
		}
	}
	r.printf("actors reconstructed: %d/%d, links: %d/%d — all kinds match\n",
		reconActors, len(truthActors), len(st.D.Links()), len(truthLinks))
	// Occupancy fidelity across stops.
	if _, err := st.D.CatchTokensOf("ipred", map[string]uint64{"Pipe_in": 1}); err != nil {
		return err
	}
	stops := 0
	for {
		ev := st.Low.Continue()
		if ev.Kind == lowdbg.StopDone {
			break
		}
		if ev.Kind == lowdbg.StopError {
			return ev.Err
		}
		stops++
		bad, err := st.D.VerifyOccupancy()
		if err != nil {
			return err
		}
		if len(bad) > 0 {
			return fmt.Errorf("occupancy mismatch at stop %d: %v", stops, bad)
		}
	}
	r.printf("occupancy model == framework at all %d stops\n", stops)
	r.printf("import audit: internal/core does not import internal/pedf (enforced by test)\n")
	return nil
}

// ---- F4: Figure 4, token accumulation snapshot ----

// F4 runs the rate-mismatch variant and pauses when the pipe -> ipf link
// holds 20 tokens — the Figure 4 snapshot — then prints the occupancy of
// every link and the annotated graph.
func (r *Runner) F4() error {
	r.section("F4", "H.264 graph with link occupancy (paper Fig. 4)")
	p := r.params()
	if p.NumBlocks() < 64 {
		p = h264.Params{W: 48, H: 48, QP: 8, Seed: 7} // need enough MBs to accumulate 20
	}
	st, err := stack.Recipe{Params: p, Bug: h264.BugRateStall, LinkCap: 64}.Build()
	if err != nil {
		return err
	}
	defer st.Shutdown()
	target := 20
	st.D.CatchWhen(fmt.Sprintf("occupancy(pipe->ipf) == %d", target), func(d *core.Debugger) bool {
		conn, err := d.Connection("ipf::pipe_in")
		return err == nil && conn.Link != nil && conn.Link.Occupancy() >= target
	})
	ev := st.Low.Continue()
	if ev.Kind != lowdbg.StopAction {
		return fmt.Errorf("condition stop not reached: %v", ev)
	}
	r.printf("paused: %s (t=%s)\n\nlink occupancies at the snapshot:\n", ev.Reason, st.K.Now())
	for _, l := range st.D.Links() {
		r.printf("  %-44s held=%d\n", l.Src.Qualified()+" -> "+l.Dst.Qualified(), l.Occupancy())
	}
	r.printf("\nannotated graph:\n%s", st.D.GraphDOT())
	r.printf("paper shape: pipe->ipf accumulates (20 at the snapshot) while most links stay near-empty\n")
	return nil
}

// ---- C1..C4: the Section VI transcripts ----

// transcript builds a fresh decoder world and replays CLI commands on
// it, echoing them with the (gdb) prompt.
func (r *Runner) transcript(cmds []string) error {
	st, err := stack.Recipe{Params: r.params()}.Build()
	if err != nil {
		return err
	}
	defer st.Shutdown()
	var out strings.Builder
	c := cli.New(st.D, &out)
	for _, cmd := range cmds {
		before := out.Len()
		err := c.Execute(cmd)
		r.printf("(gdb) %s\n", cmd)
		r.printf("%s", out.String()[before:])
		if err != nil {
			r.printf("error: %v\n", err)
		}
	}
	return nil
}

// C1 replays the Section VI-B catchpoint transcript.
func (r *Runner) C1() error {
	r.section("C1", "token-based execution firing (paper VI-B)")
	return r.transcript([]string{
		"filter pipe catch work",
		"continue",
		"filter ipred catch Pipe_in=1,Hwcfg_in=1",
		"continue",
		"filter ipred catch *in=1",
		"continue",
	})
}

// C2 replays the Section VI-C step_both transcript.
func (r *Runner) C2() error {
	r.section("C2", "non-linear execution: step_both (paper VI-C)")
	return r.transcript([]string{
		fmt.Sprintf("break ipred.c:%d", h264.IpredAssignLine()),
		"continue",
		"list",
		"step_both",
		"continue",
		"continue",
	})
}

// C3 replays the Section VI-D recording / splitter / last_token flow.
func (r *Runner) C3() error {
	r.section("C3", "token state and information flow (paper VI-D)")
	return r.transcript([]string{
		"iface hwcfg::pipe_MbType_out record",
		"filter red configure splitter",
		"filter pipe catch Red2PipeCbMB_in=3",
		"continue",
		"iface hwcfg::pipe_MbType_out print",
		"filter pipe info last_token",
	})
}

// C4 replays the Section VI-E two-level debugging transcript.
func (r *Runner) C4() error {
	r.section("C4", "two-level debugging (paper VI-E)")
	return r.transcript([]string{
		"filter pipe catch Red2PipeCbMB_in=1",
		"continue",
		"filter pipe print last_token",
		"print $1",
		"info filters",
	})
}

// ---- Q1: quantified bug localization ----

// Q1 runs the scripted localization sessions for the three injected bug
// classes under both strategies.
func (r *Runner) Q1() error {
	r.section("Q1", "bug-localization effort, dataflow vs plain debugger (paper VI-F)")
	p := r.params()
	if p.NumBlocks() < 64 {
		p = h264.Params{W: 32, H: 32, QP: 8, Seed: 7}
	}
	results, err := script.RunAll(p)
	if err != nil {
		return err
	}
	r.printf("%-20s %-10s %6s  %s\n", "bug class", "strategy", "ops", "verdict")
	for _, res := range results {
		verdict := "NOT localized"
		if res.Localized {
			verdict = "localized"
		}
		r.printf("%-20s %-10s %6d  %s\n", res.Bug, res.Strategy, res.Ops, verdict)
	}
	// Shape check: dataflow wins on the dataflow-related classes.
	byKey := map[string]int{}
	for _, res := range results {
		byKey[fmt.Sprintf("%s/%s", res.Bug, res.Strategy)] = res.Ops
	}
	for _, bug := range []h264.Bug{h264.BugSwapMBInputs, h264.BugRateStall} {
		df := byKey[fmt.Sprintf("%s/dataflow", bug)]
		ll := byKey[fmt.Sprintf("%s/lowlevel", bug)]
		r.printf("%s: dataflow needs %.1fx fewer operations (%d vs %d)\n",
			bug, float64(ll)/float64(df), df, ll)
	}
	return nil
}

// ---- P1: breakpoint intrusiveness ----

// P1 measures the decoder under six configurations: native (no
// debugger), observability recorder only (the dfobs always-on layer),
// attached-idle, full dataflow layer, data-exchange breakpoints disabled
// (mitigation option 1), and framework cooperation scoped to one filter
// (mitigation option 2). The obs row quantifies the recorder overhead
// the ISSUE's acceptance criterion compares against full breakpoint
// instrumentation.
func (r *Runner) P1() error {
	r.section("P1", "breakpoint intrusiveness and mitigations (paper Sec. V)")
	p := r.params()
	type cfg struct {
		name    string
		obsOn   bool // install an event recorder, no debugger
		debug   bool
		attach  bool // attach the dataflow layer
		dataOff bool
		coop    []string
	}
	cfgs := []cfg{
		{name: "native (no debugger)"},
		{name: "obs recorder (events + metrics)", obsOn: true},
		{name: "debugger attached, no dataflow layer", debug: true},
		{name: "full dataflow layer", debug: true, attach: true},
		{name: "option 1: data breakpoints disabled", debug: true, attach: true, dataOff: true},
		{name: "option 2: cooperation (only ipf)", debug: true, attach: true, coop: []string{"ipf"}},
	}
	r.printf("%-40s %12s %12s %12s\n", "configuration", "wall-clock", "hook calls", "data events")
	bits, err := h264.Encode(h264.GenerateFrame(p), p)
	if err != nil {
		return err
	}
	repeats := 5
	if r.Quick {
		repeats = 1
	}
	ratios := make([]float64, len(cfgs))
	var baseline time.Duration
	for i, c := range cfgs {
		var best time.Duration
		var hooks, dataEvents uint64
		run := func() error {
			k := sim.NewKernel()
			var orec *obs.Recorder
			defer func() {
				_ = k.Shutdown()
				orec.Release()
			}()
			if c.obsOn {
				orec = obs.NewRecorder(1 << 16)
				k.SetObserver(orec)
			}
			var low *lowdbg.Debugger
			var d *core.Debugger
			if c.debug {
				low = lowdbg.New(k, dbginfo.NewTable())
				if c.attach {
					d = core.Attach(low)
				}
				low.DataBreakpointsEnabled = !c.dataOff
			}
			m := mach.New(k, mach.Config{})
			rt := pedf.NewRuntime(k, m, low)
			if c.coop != nil {
				rt.SetCooperation(c.coop)
			}
			if _, err := h264.BuildVariant(rt, p, bits, h264.BugNone); err != nil {
				return err
			}
			if err := rt.Start(); err != nil {
				return err
			}
			start := time.Now()
			if c.debug {
				if ev := low.Continue(); ev.Kind != lowdbg.StopDone {
					return fmt.Errorf("%s: ended with %v", c.name, ev)
				}
			} else {
				if st, err := k.Run(); err != nil || st != sim.RunIdle {
					return fmt.Errorf("%s: run = %v %v", c.name, st, err)
				}
			}
			elapsed := time.Since(start)
			if best == 0 || elapsed < best {
				best = elapsed
			}
			if low != nil {
				hooks = low.HookCalls
			}
			if d != nil {
				dataEvents = d.DataEvents
			}
			if orec != nil {
				dataEvents = orec.Total() // events recorded by the obs ring
			}
			return nil
		}
		for rep := 0; rep < repeats; rep++ {
			if err := run(); err != nil {
				return err
			}
		}
		if baseline == 0 {
			baseline = best
		}
		ratios[i] = float64(best) / float64(baseline)
		r.printf("%-40s %12s %12d %12d   (%.2fx native)\n",
			c.name, best.Round(time.Microsecond), hooks, dataEvents, ratios[i])
	}
	r.printf("hook calls and data events are deterministic; wall-clock is host-noisy.\n")
	r.printf("expected shape: full layer dispatches every data event; option 1 dispatches\n")
	r.printf("none (near attached-idle cost); option 2 dispatches only the watched actor's.\n")
	r.printf("recorder overhead: %.2fx native (obs row) vs %.2fx for the full dataflow\n",
		ratios[1], ratios[3])
	r.printf("layer — always-on event recording costs less than breakpoint instrumentation.\n")
	return nil
}

// ---- P2: determinism under the debugger ----

// P2 verifies the paper's claim that breakpoint-induced slowdown does
// not alter the dataflow execution semantics: the decoded output and the
// full token-exchange trace are identical with and without a stopping
// debugger, across seeds.
func (r *Runner) P2() error {
	r.section("P2", "determinism under debugger interaction (paper Sec. I)")
	p := r.params()
	for seed := int64(1); seed <= 3; seed++ {
		p.Seed = seed
		// Run A: no debugger, with an obs recorder rendering payloads
		// (records the token sequence).
		runOnce := func(withStops bool) (string, []int, error) {
			k := sim.NewKernel()
			// A generous ring so the full token sequence of the run is
			// retained (drop-oldest would truncate the comparison window).
			orec := obs.NewRecorder(1 << 20)
			orec.SetPayloads(true)
			k.SetObserver(orec)
			defer func() {
				_ = k.Shutdown()
				orec.Release()
			}()
			low := lowdbg.New(k, dbginfo.NewTable())
			var d *core.Debugger
			if withStops {
				d = core.Attach(low)
			}
			m := mach.New(k, mach.Config{})
			rt := pedf.NewRuntime(k, m, low)
			bits, err := h264.Encode(h264.GenerateFrame(p), p)
			if err != nil {
				return "", nil, err
			}
			app, err := h264.BuildVariant(rt, p, bits, h264.BugNone)
			if err != nil {
				return "", nil, err
			}
			if err := rt.Start(); err != nil {
				return "", nil, err
			}
			if withStops {
				if _, err := k.RunUntil(0); err != nil {
					return "", nil, err
				}
				// A stopping catchpoint on every ipred work-item.
				if _, err := d.CatchTokensOf("ipred", map[string]uint64{"Pipe_in": 1}); err != nil {
					return "", nil, err
				}
			}
			for {
				ev := low.Continue()
				if ev.Kind == lowdbg.StopDone {
					if ev.Deadlock != nil {
						return "", nil, fmt.Errorf("deadlock: %v", ev.Deadlock)
					}
					break
				}
				if ev.Kind == lowdbg.StopError {
					return "", nil, ev.Err
				}
			}
			frame, err := app.OutputFrame()
			if err != nil {
				return "", nil, err
			}
			// Token sequence: every push in order, payload included.
			var sig strings.Builder
			orec.Range(func(ev obs.Event) bool {
				if ev.Kind == obs.KPush {
					fmt.Fprintf(&sig, "%s::%s:%s;", ev.Actor, ev.Port, ev.Val)
				}
				return true
			})
			return sig.String(), frame, nil
		}
		sigA, frameA, err := runOnce(false)
		if err != nil {
			return err
		}
		sigB, frameB, err := runOnce(true)
		if err != nil {
			return err
		}
		samePixels := len(frameA) == len(frameB)
		if samePixels {
			for i := range frameA {
				if frameA[i] != frameB[i] {
					samePixels = false
					break
				}
			}
		}
		r.printf("seed %d: token sequences identical=%v, output frames identical=%v (%d pushes)\n",
			seed, sigA == sigB, samePixels, strings.Count(sigA, ";"))
		if sigA != sigB || !samePixels {
			return fmt.Errorf("seed %d: debugger interaction altered the execution", seed)
		}
	}
	r.printf("debugger stops slow the run down but never change token order or results\n")
	return nil
}
