// Benchmarks regenerating the performance-shaped results of the paper,
// one family per experiment of DESIGN.md §5:
//
//   - BenchmarkMemoryHierarchy  (F1)  — per-level transfer costs
//   - BenchmarkGraphReconstruction (F2/contribution #1)
//   - BenchmarkGraphSnapshot    (F4)  — annotated DOT rendering
//   - BenchmarkIntrusiveness    (P1)  — debugger attachment overhead and
//     the two mitigation options
//   - BenchmarkCooperationScaling (P1) — option 2 vs number of watched actors
//   - BenchmarkBugLocalization  (Q1)  — scripted sessions per strategy
//   - BenchmarkDeterministicReplay (P2)
//   - BenchmarkDecode, BenchmarkFilterC, BenchmarkLinkThroughput —
//     substrate micro-benchmarks
//
// Absolute numbers depend on the host; the paper-relevant output is the
// *shape*: full instrumentation slowest, option 1 near-native, option 2
// in between, dataflow localization needing fewer operations.
package dfdbg

import (
	"fmt"
	"strings"
	"testing"

	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/script"
	"dfdbg/internal/sim"
	"dfdbg/internal/stack"
)

var benchParams = h264.Params{W: 32, H: 32, QP: 8, Seed: 7}

// decodeOnce runs one full decode and returns the token-push count (for
// tokens/sec metrics). Configuration mirrors experiment P1.
func decodeOnce(b *testing.B, p h264.Params, withDbg, attachCore, dataOff bool, coop []string) uint64 {
	b.Helper()
	k := sim.NewKernel()
	var low *lowdbg.Debugger
	if withDbg {
		low = lowdbg.New(k, dbginfo.NewTable())
		if attachCore {
			core.Attach(low)
		}
		low.DataBreakpointsEnabled = !dataOff
	}
	m := mach.New(k, mach.Config{})
	rt := pedf.NewRuntime(k, m, low)
	if coop != nil {
		rt.SetCooperation(coop)
	}
	bits, err := h264.Encode(h264.GenerateFrame(p), p)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h264.Build(rt, p, bits, false); err != nil {
		b.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		b.Fatal(err)
	}
	if withDbg {
		if ev := low.Continue(); ev.Kind != lowdbg.StopDone || ev.Deadlock != nil {
			b.Fatalf("run ended with %v", ev)
		}
	} else {
		if st, err := k.Run(); err != nil || st != sim.RunIdle {
			b.Fatalf("run = %v %v", st, err)
		}
	}
	var pushes uint64
	for _, l := range rt.Links() {
		pushes += l.Pushes()
	}
	return pushes
}

// BenchmarkMemoryHierarchy measures the simulated platform's three
// transfer classes (experiment F1's cost model).
func BenchmarkMemoryHierarchy(b *testing.B) {
	cases := []struct {
		name string
		dst  func(m *mach.Machine) *mach.PE
		src  func(m *mach.Machine) *mach.PE
	}{
		{"L1_intra_cluster", func(m *mach.Machine) *mach.PE { return m.PEByID(1) },
			func(m *mach.Machine) *mach.PE { return m.PEByID(0) }},
		{"L2_inter_cluster", func(m *mach.Machine) *mach.PE { return m.PEByID(16) },
			func(m *mach.Machine) *mach.PE { return m.PEByID(0) }},
		{"DMA_host_fabric", func(m *mach.Machine) *mach.PE { return m.PEByID(0) },
			func(m *mach.Machine) *mach.PE { return m.Host }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			k := sim.NewKernel()
			m := mach.New(k, mach.Config{})
			src, dst := c.src(m), c.dst(m)
			n := b.N
			m.SpawnOn(src, "bench", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					m.Transfer(p, src, dst, 4)
				}
			})
			b.ResetTimer()
			if _, err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(k.Now())/float64(n), "simns/transfer")
		})
	}
}

// BenchmarkGraphReconstruction measures the initialization-phase
// interception that rebuilds the application graph (contribution #1).
func BenchmarkGraphReconstruction(b *testing.B) {
	p := benchParams
	bits, err := h264.Encode(h264.GenerateFrame(p), p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		low := lowdbg.New(k, dbginfo.NewTable())
		d := core.Attach(low)
		m := mach.New(k, mach.Config{})
		rt := pedf.NewRuntime(k, m, low)
		if _, err := h264.Build(rt, p, bits, false); err != nil {
			b.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			b.Fatal(err)
		}
		if _, err := k.RunUntil(0); err != nil {
			b.Fatal(err)
		}
		if len(d.Actors()) < 9 || len(d.Links()) != 13 {
			b.Fatalf("reconstruction incomplete: %d actors %d links",
				len(d.Actors()), len(d.Links()))
		}
	}
}

// BenchmarkGraphSnapshot measures rendering the Figure 4-style annotated
// graph from the reconstructed model.
func BenchmarkGraphSnapshot(b *testing.B) {
	st, err := stack.Recipe{Params: benchParams}.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := st.D.GraphDOT(); !strings.Contains(out, "digraph") {
			b.Fatal("bad DOT")
		}
	}
}

// BenchmarkIntrusiveness is experiment P1: the decoder under the five
// debugger configurations. Compare ns/op across sub-benchmarks.
func BenchmarkIntrusiveness(b *testing.B) {
	cases := []struct {
		name                 string
		dbg, attach, dataOff bool
		coop                 []string
	}{
		{name: "Native"},
		{name: "AttachedIdle", dbg: true},
		{name: "FullDataflowLayer", dbg: true, attach: true},
		{name: "Option1_DataBreakpointsOff", dbg: true, attach: true, dataOff: true},
		{name: "Option2_CooperationIpf", dbg: true, attach: true, coop: []string{"ipf"}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var pushes uint64
			for i := 0; i < b.N; i++ {
				pushes = decodeOnce(b, benchParams, c.dbg, c.attach, c.dataOff, c.coop)
			}
			b.ReportMetric(float64(pushes), "tokens/decode")
		})
	}
}

// BenchmarkCooperationScaling shows mitigation option 2's cost growing
// with the number of watched actors (0 = no data hooks at all).
func BenchmarkCooperationScaling(b *testing.B) {
	sets := [][]string{
		{},
		{"ipf"},
		{"ipf", "pipe", "red"},
		{"ipf", "pipe", "red", "bh", "hwcfg", "ipred", "mb"},
	}
	for _, coop := range sets {
		b.Run(fmt.Sprintf("watched_%d", len(coop)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				decodeOnce(b, benchParams, true, true, false, coop)
			}
		})
	}
}

// BenchmarkBugLocalization is experiment Q1: full scripted localization
// sessions. ns/op compares wall time; the ops metric is the paper-shaped
// result.
func BenchmarkBugLocalization(b *testing.B) {
	for _, bug := range []h264.Bug{h264.BugSwapMBInputs, h264.BugRateStall, h264.BugBadDC} {
		for _, strat := range []script.Strategy{script.Dataflow, script.LowLevel} {
			b.Run(fmt.Sprintf("%s/%s", bug, strat), func(b *testing.B) {
				var ops int
				for i := 0; i < b.N; i++ {
					res, err := script.Run(benchParams, bug, strat)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Localized {
						b.Fatalf("session failed: %v", res)
					}
					ops = res.Ops
				}
				b.ReportMetric(float64(ops), "ops")
			})
		}
	}
}

// BenchmarkDeterministicReplay is experiment P2's mechanism: a full run
// with a frequently-stopping catchpoint, resumed to completion.
func BenchmarkDeterministicReplay(b *testing.B) {
	p := benchParams
	bits, _ := h264.Encode(h264.GenerateFrame(p), p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		low := lowdbg.New(k, dbginfo.NewTable())
		d := core.Attach(low)
		m := mach.New(k, mach.Config{})
		rt := pedf.NewRuntime(k, m, low)
		if _, err := h264.Build(rt, p, bits, false); err != nil {
			b.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			b.Fatal(err)
		}
		if _, err := k.RunUntil(0); err != nil {
			b.Fatal(err)
		}
		if _, err := d.CatchTokensOf("ipred", map[string]uint64{"Pipe_in": 1}); err != nil {
			b.Fatal(err)
		}
		stops := 0
		for {
			ev := low.Continue()
			if ev.Kind == lowdbg.StopDone {
				break
			}
			if ev.Kind == lowdbg.StopError {
				b.Fatal(ev.Err)
			}
			stops++
		}
		if stops != p.NumBlocks() {
			b.Fatalf("stops = %d, want %d", stops, p.NumBlocks())
		}
	}
}

// BenchmarkDecode is the case-study workload itself (no debugger).
func BenchmarkDecode(b *testing.B) {
	for _, size := range []int{16, 32, 48} {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			p := h264.Params{W: size, H: size, QP: 8, Seed: 7}
			var pushes uint64
			for i := 0; i < b.N; i++ {
				pushes = decodeOnce(b, p, false, false, false, nil)
			}
			b.ReportMetric(float64(pushes), "tokens/decode")
		})
	}
}

// BenchmarkDecodeVideo is the multi-frame sequence workload (with a
// 4:2:0 chroma variant).
func BenchmarkDecodeVideo(b *testing.B) {
	cases := []struct {
		name   string
		frames int
		chroma bool
	}{
		{"frames_1", 1, false},
		{"frames_4", 4, false},
		{"frames_8", 8, false},
		{"frames_4_chroma", 4, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7, Frames: c.frames, Chroma: c.chroma}
			bits, err := h264.EncodeSequence(h264.GenerateSequence(p), p)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel()
				m := mach.New(k, mach.Config{})
				rt := pedf.NewRuntime(k, m, nil)
				app, err := h264.Build(rt, p, bits, false)
				if err != nil {
					b.Fatal(err)
				}
				if err := rt.Start(); err != nil {
					b.Fatal(err)
				}
				if st, err := k.Run(); err != nil || st != sim.RunIdle {
					b.Fatalf("run = %v %v", st, err)
				}
				if _, err := app.OutputSequence(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeThroughput is the whole-decoder throughput baseline
// for the batched execution engine (DESIGN §12): the 8-frame sequence
// decoded per-token vs with proven-SDF regions batched, reported as
// frames/sec of wall time and kernel dispatches per frame. The
// attached_* variants run the same decode with lowdbg and core attached
// and nothing armed, the world the paper's intrusiveness question is
// about. CI gates the unattached pair with benchguard: batched against
// per_token, and per_token against the filterc walker (DESIGN §9).
func BenchmarkDecodeThroughput(b *testing.B) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7, Frames: 8}
	bits, err := h264.EncodeSequence(h264.GenerateSequence(p), p)
	if err != nil {
		b.Fatal(err)
	}
	// Batch plans are plain data (actor names, link IDs): analyze once on
	// a throwaway instance and reuse the plans for every decode, the way
	// a deployment would cache the analyzer's output per application.
	var plans []pedf.BatchPlan
	{
		k := sim.NewKernel()
		rt := pedf.NewRuntime(k, mach.New(k, mach.Config{}), nil)
		if _, err := h264.Build(rt, p, bits, false); err != nil {
			b.Fatal(err)
		}
		if plans, err = pedfgraph.BatchPlans(rt, "h264"); err != nil {
			b.Fatal(err)
		}
		if len(plans) == 0 {
			b.Fatal("no batchable region found in the decoder")
		}
	}
	for _, c := range []struct {
		name              string
		attached, batched bool
	}{
		{"per_token", false, false},
		{"batched", false, true},
		{"attached_per_token", true, false},
		{"attached_batched", true, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			var dispatches uint64
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel()
				m := mach.New(k, mach.Config{})
				var low *lowdbg.Debugger
				if c.attached {
					low = lowdbg.New(k, dbginfo.NewTable())
					core.Attach(low)
				}
				rt := pedf.NewRuntime(k, m, low)
				app, err := h264.Build(rt, p, bits, false)
				if err != nil {
					b.Fatal(err)
				}
				if err := rt.Start(); err != nil {
					b.Fatal(err)
				}
				if c.batched {
					if err := rt.EnableBatch(plans); err != nil {
						b.Fatal(err)
					}
					if modes := rt.RegionModes(); len(modes) == 0 || !modes[0].Batched {
						b.Fatalf("regions not batched: %+v", modes)
					}
				}
				if st, err := k.Run(); err != nil || st != sim.RunIdle {
					b.Fatalf("run = %v %v", st, err)
				}
				if _, err := app.OutputSequence(); err != nil {
					b.Fatal(err)
				}
				dispatches += k.Dispatches()
			}
			frames := float64(p.Frames) * float64(b.N)
			b.ReportMetric(frames/b.Elapsed().Seconds(), "frames/sec")
			b.ReportMetric(float64(dispatches)/frames, "dispatches/frame")
		})
	}
}

// BenchmarkFilterC measures the restricted-C interpreter's statement
// throughput (the substrate every filter runs on).
func BenchmarkFilterC(b *testing.B) {
	prog := filterc.MustParse("bench.c", `
u32 work(u32 n) {
	u32 s = 0;
	for (u32 i = 0; i < n; i++) {
		s = s + (i ^ (s << 1)) % 1021;
	}
	return s;
}`)
	in := filterc.New(prog, benchEnv{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.CallFunc("work", []filterc.Value{filterc.Int(filterc.U32, 1000)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000, "stmts/op")
}

// BenchmarkFilterCCompiled runs the BenchmarkFilterC workload on the
// explicit engine × hooks matrix: the tree-walking oracle vs the bytecode
// VM, each with and without statement hooks installed. The paper's
// debuggability constraint is the "hooks" column: attaching a debugger
// must not cost more on the VM than it did on the walker. CI gates
// BenchmarkFilterC (the default engine) against walker/nohooks.
func BenchmarkFilterCCompiled(b *testing.B) {
	src := `
u32 work(u32 n) {
	u32 s = 0;
	for (u32 i = 0; i < n; i++) {
		s = s + (i ^ (s << 1)) % 1021;
	}
	return s;
}`
	engines := []struct {
		name string
		eng  filterc.Engine
	}{
		{"walker", filterc.EngineWalker},
		{"vm", filterc.EngineVM},
	}
	for _, e := range engines {
		for _, hooked := range []bool{false, true} {
			name := e.name + "/nohooks"
			if hooked {
				name = e.name + "/hooks"
			}
			b.Run(name, func(b *testing.B) {
				prog := filterc.MustParse("bench.c", src)
				in := filterc.New(prog, benchEnv{})
				in.Engine = e.eng
				var h *countingHooks
				if hooked {
					h = &countingHooks{}
					in.Hooks = h
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := in.CallFunc("work", []filterc.Value{filterc.Int(filterc.U32, 1000)}); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if hooked && h.stmts == 0 {
					b.Fatal("hooks installed but never fired")
				}
			})
		}
	}
}

// BenchmarkFilterCCompile measures the one-time cost of compiling a
// filter program to bytecode (paid once per interned program; every
// later Interp of it reuses the program's compiled code).
func BenchmarkFilterCCompile(b *testing.B) {
	prog := filterc.MustParse("bench.c", `
u32 work(u32 n) {
	u32 s = 0;
	for (u32 i = 0; i < n; i++) {
		s = s + (i ^ (s << 1)) % 1021;
	}
	return s;
}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := filterc.Compile(prog); c == nil {
			b.Fatal("nil code")
		}
	}
}

// countingHooks is the cheapest possible Hooks implementation: it only
// counts, so the hooked benchmarks measure dispatch overhead, not the
// hook body.
type countingHooks struct {
	stmts, enters, exits int
}

func (h *countingHooks) OnStmt(*filterc.Frame, filterc.Pos)   { h.stmts++ }
func (h *countingHooks) OnEnter(*filterc.Frame)               { h.enters++ }
func (h *countingHooks) OnExit(*filterc.Frame, filterc.Value) { h.exits++ }

type benchEnv struct{}

func (benchEnv) IORead(string, int64) (filterc.Value, error) { return filterc.Value{}, nil }
func (benchEnv) IOWrite(string, int64, filterc.Value) error  { return nil }
func (benchEnv) DataRef(string) (*filterc.Value, error)      { return nil, fmt.Errorf("none") }
func (benchEnv) AttrRef(string) (*filterc.Value, error)      { return nil, fmt.Errorf("none") }
func (benchEnv) Intrinsic(string, []filterc.Value) (filterc.Value, bool, error) {
	return filterc.Value{}, false, nil
}

// BenchmarkLinkThroughput measures the raw PEDF link push/pop path with
// a two-filter pipeline.
func BenchmarkLinkThroughput(b *testing.B) {
	u32 := filterc.Scalar(filterc.U32)
	k := sim.NewKernel()
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 2})
	rt := pedf.NewRuntime(k, m, nil)
	mod, _ := rt.NewModule("m", nil)
	in, _ := mod.AddPort("in", pedf.In, u32)
	out, _ := mod.AddPort("out", pedf.Out, u32)
	n := b.N
	f, err := rt.NewFilter(mod, pedf.FilterSpec{
		Name: "fwd",
		Work: func(c *pedf.WorkCtx) error {
			v, err := c.Read("i")
			if err != nil {
				return err
			}
			return c.Write("o", v)
		},
		Inputs:  []pedf.PortSpec{{Name: "i", Type: u32}},
		Outputs: []pedf.PortSpec{{Name: "o", Type: u32}},
	})
	if err != nil {
		b.Fatal(err)
	}
	steps := 0
	if _, err := rt.SetController(mod, pedf.ControllerSpec{
		Ctl: func(c *pedf.CtlCtx) (bool, error) {
			if err := c.Fire("fwd"); err != nil {
				return false, err
			}
			c.WaitSync()
			steps++
			return steps < n, nil
		},
	}); err != nil {
		b.Fatal(err)
	}
	if err := rt.Bind(in, f.In("i")); err != nil {
		b.Fatal(err)
	}
	if err := rt.Bind(f.Out("o"), out); err != nil {
		b.Fatal(err)
	}
	feed := make([]filterc.Value, n)
	for i := range feed {
		feed[i] = filterc.Int(filterc.U32, int64(i))
	}
	if err := rt.FeedInput(in, feed); err != nil {
		b.Fatal(err)
	}
	if _, err := rt.CollectOutput(out); err != nil {
		b.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if st, err := k.Run(); err != nil || st != sim.RunIdle {
		b.Fatalf("run = %v %v", st, err)
	}
}
