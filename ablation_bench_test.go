// Ablation benchmarks for the design choices DESIGN.md §6 calls out:
// token-content recording cost, catchpoint-evaluation scaling, FIFO
// capacity (pipelining depth), and actor-to-PE mapping policy.
package dfdbg

import (
	"fmt"
	"testing"

	"dfdbg/internal/core"
	"dfdbg/internal/filterc"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
	"dfdbg/internal/stack"
)

// debuggedDecode builds the decoder under the full stack, applies setup,
// and runs to completion.
func debuggedDecode(b *testing.B, p h264.Params, linkCap int,
	setup func(*core.Debugger, *pedf.Runtime)) sim.Time {
	b.Helper()
	st, err := stack.Recipe{Params: p, LinkCap: linkCap}.Build()
	if err != nil {
		b.Fatal(err)
	}
	if setup != nil {
		setup(st.D, st.RT)
	}
	if ev := st.Low.Continue(); ev.Kind != lowdbg.StopDone || ev.Deadlock != nil {
		b.Fatalf("run ended with %v", ev)
	}
	return st.K.Now()
}

// BenchmarkRecordingOverhead — cost of `iface ... record` on hot
// interfaces (the paper's "significant quantity of memory" concern is
// why recording is opt-in).
func BenchmarkRecordingOverhead(b *testing.B) {
	cases := []struct {
		name   string
		ifaces []string
	}{
		{"off", nil},
		{"one_hot_iface", []string{"red::bh_in"}},
		{"all_ifaces", []string{
			"red::bh_in", "hwcfg::Hdr_in", "pipe::MbType_in", "pipe::Red2PipeCbMB_in",
			"ipred::Pipe_in", "ipred::Hwcfg_in", "ipf::pipe_in",
			"ipf::Add2Dblock_ipred_in", "mb::Izz_in", "mb::Addr_in", "mb::Blk_in",
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				debuggedDecode(b, benchParams, 0, func(d *core.Debugger, rt *pedf.Runtime) {
					for _, q := range c.ifaces {
						if err := d.SetRecording(q, true); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkCatchpointScaling — evaluation cost per data event as the
// number of planted (never-firing) catchpoints grows.
func BenchmarkCatchpointScaling(b *testing.B) {
	for _, n := range []int{0, 4, 16, 64} {
		b.Run(fmt.Sprintf("catchpoints_%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				debuggedDecode(b, benchParams, 0, func(d *core.Debugger, rt *pedf.Runtime) {
					for j := 0; j < n; j++ {
						// A content catchpoint whose predicate never
						// matches: pure evaluation overhead.
						if _, err := d.CatchContentOf("ipred::Pipe_in", "never",
							func(v filterc.Value) bool { return false }); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkLinkCapSweep — FIFO depth vs simulated completion time: deep
// FIFOs decouple producer/consumer (more pipelining), shallow ones
// serialize the modules.
func BenchmarkLinkCapSweep(b *testing.B) {
	for _, capN := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("cap_%d", capN), func(b *testing.B) {
			var simT sim.Time
			for i := 0; i < b.N; i++ {
				simT = debuggedDecode(b, benchParams, capN, nil)
			}
			b.ReportMetric(float64(simT), "simns/decode")
		})
	}
}

// BenchmarkMappingPolicies — the same pipeline mapped within one
// cluster, across clusters, and onto the host: simulated time follows
// the memory hierarchy.
func BenchmarkMappingPolicies(b *testing.B) {
	u32 := filterc.Scalar(filterc.U32)
	run := func(b *testing.B, place func(rt *pedf.Runtime) error) sim.Time {
		k := sim.NewKernel()
		m := mach.New(k, mach.Config{Clusters: 2, PEsPerCluster: 8})
		rt := pedf.NewRuntime(k, m, nil)
		mod, _ := rt.NewModule("m", nil)
		min, _ := mod.AddPort("in", pedf.In, u32)
		mout, _ := mod.AddPort("out", pedf.Out, u32)
		fwd := `void work() { pedf.io.o[0] = pedf.io.i[0] + 1; }`
		names := []string{"s0", "s1", "s2", "s3"}
		var prevOut *pedf.Port = min
		for _, n := range names {
			f, err := rt.NewFilter(mod, pedf.FilterSpec{Name: n, Source: fwd,
				Inputs:  []pedf.PortSpec{{Name: "i", Type: u32}},
				Outputs: []pedf.PortSpec{{Name: "o", Type: u32}}})
			if err != nil {
				b.Fatal(err)
			}
			if err := rt.Bind(prevOut, f.In("i")); err != nil {
				b.Fatal(err)
			}
			prevOut = f.Out("o")
		}
		if err := rt.Bind(prevOut, mout); err != nil {
			b.Fatal(err)
		}
		ctl := `u32 work() {
	ACTOR_FIRE("s0"); ACTOR_FIRE("s1"); ACTOR_FIRE("s2"); ACTOR_FIRE("s3");
	WAIT_FOR_ACTOR_SYNC();
	if (STEP_INDEX() + 1 >= 32) return 0;
	return 1;
}`
		if _, err := rt.SetController(mod, pedf.ControllerSpec{Source: ctl}); err != nil {
			b.Fatal(err)
		}
		var feed []filterc.Value
		for i := 0; i < 32; i++ {
			feed = append(feed, filterc.Int(filterc.U32, int64(i)))
		}
		if err := rt.FeedInput(min, feed); err != nil {
			b.Fatal(err)
		}
		if _, err := rt.CollectOutput(mout); err != nil {
			b.Fatal(err)
		}
		if place != nil {
			if err := place(rt); err != nil {
				b.Fatal(err)
			}
		}
		if err := rt.Start(); err != nil {
			b.Fatal(err)
		}
		if st, err := k.Run(); err != nil || st != sim.RunIdle {
			b.Fatalf("run = %v %v", st, err)
		}
		return k.Now()
	}
	cases := []struct {
		name  string
		place func(rt *pedf.Runtime) error
	}{
		{"same_cluster", func(rt *pedf.Runtime) error {
			for i, n := range []string{"s0", "s1", "s2", "s3"} {
				if err := rt.PlaceActor(n, i); err != nil {
					return err
				}
			}
			return nil
		}},
		{"cross_cluster", func(rt *pedf.Runtime) error {
			pes := []int{0, 8, 1, 9} // alternate clusters per stage
			for i, n := range []string{"s0", "s1", "s2", "s3"} {
				if err := rt.PlaceActor(n, pes[i]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"all_on_host", func(rt *pedf.Runtime) error {
			for _, n := range []string{"s0", "s1", "s2", "s3"} {
				if err := rt.PlaceActor(n, -1); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var simT sim.Time
			for i := 0; i < b.N; i++ {
				simT = run(b, c.place)
			}
			b.ReportMetric(float64(simT), "simns/run")
		})
	}
}
