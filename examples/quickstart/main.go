// Quickstart: build a two-filter PEDF application programmatically, run
// it under the dataflow debugger, stop at a catchpoint, and inspect the
// reconstructed graph and token state. With the observability flags the
// run also emits a Perfetto timeline and a metrics dump:
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -timeline timeline.json -metrics metrics.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

func main() {
	var (
		timeline = flag.String("timeline", "", "write a Chrome trace / Perfetto JSON timeline")
		metrics  = flag.String("metrics", "", "write the metrics registry as text")
	)
	flag.Parse()
	if _, _, err := run(os.Stdout, *timeline, *metrics); err != nil {
		log.Fatal(err)
	}
}

// run executes the quickstart scenario, writing the narrative to w and,
// when the paths are non-empty, the observability artifacts to disk. It
// returns the recorder and the final simulated time so tests can check
// the profiler invariants.
func run(w io.Writer, timelinePath, metricsPath string) (*obs.Recorder, sim.Time, error) {
	// 1. A simulation kernel with the observability recorder installed,
	//    the P2012-like machine, the low-level debugger (the GDB
	//    stand-in) and the dataflow layer on top.
	k := sim.NewKernel()
	rec := obs.NewRecorder(1 << 14)
	k.SetObserver(rec)
	low := lowdbg.New(k, dbginfo.NewTable())
	dfd := core.Attach(low)
	m := mach.New(k, mach.Config{Clusters: 2, PEsPerCluster: 4})
	rt := pedf.NewRuntime(k, m, low)

	// 2. One module with two chained filters written in the restricted C
	//    subset, and a step-based controller.
	u32 := filterc.Scalar(filterc.U32)
	mod, err := rt.NewModule("demo", nil)
	if err != nil {
		return nil, 0, err
	}
	in, err := mod.AddPort("in", pedf.In, u32)
	if err != nil {
		return nil, 0, err
	}
	out, err := mod.AddPort("out", pedf.Out, u32)
	if err != nil {
		return nil, 0, err
	}

	double, err := rt.NewFilter(mod, pedf.FilterSpec{
		Name:    "double",
		Source:  `void work() { pedf.io.o[0] = pedf.io.i[0] * 2; }`,
		Inputs:  []pedf.PortSpec{{Name: "i", Type: u32}},
		Outputs: []pedf.PortSpec{{Name: "o", Type: u32}},
	})
	if err != nil {
		return nil, 0, err
	}
	addone, err := rt.NewFilter(mod, pedf.FilterSpec{
		Name:    "addone",
		Source:  `void work() { pedf.io.o[0] = pedf.io.i[0] + 1; }`,
		Inputs:  []pedf.PortSpec{{Name: "i", Type: u32}},
		Outputs: []pedf.PortSpec{{Name: "o", Type: u32}},
	})
	if err != nil {
		return nil, 0, err
	}
	if _, err = rt.SetController(mod, pedf.ControllerSpec{
		Source: `u32 work() {
	ACTOR_FIRE("double");
	ACTOR_FIRE("addone");
	WAIT_FOR_ACTOR_SYNC();
	if (STEP_INDEX() + 1 >= 5) return 0;
	return 1;
}`,
	}); err != nil {
		return nil, 0, err
	}
	if err := rt.Bind(in, double.In("i")); err != nil {
		return nil, 0, err
	}
	if err := rt.Bind(double.Out("o"), addone.In("i")); err != nil {
		return nil, 0, err
	}
	if err := rt.Bind(addone.Out("o"), out); err != nil {
		return nil, 0, err
	}

	// 3. Feed five tokens from the host side and collect the results.
	var feed []filterc.Value
	for i := 1; i <= 5; i++ {
		feed = append(feed, filterc.Int(filterc.U32, int64(10*i)))
	}
	if err := rt.FeedInput(in, feed); err != nil {
		return nil, 0, err
	}
	col, err := rt.CollectOutput(out)
	if err != nil {
		return nil, 0, err
	}

	// 4. Start the framework; the init phase announces the structure and
	//    the debugger reconstructs the graph from it.
	if err := rt.Start(); err != nil {
		return nil, 0, err
	}
	if _, err := k.RunUntil(0); err != nil {
		return nil, 0, err
	}
	fmt.Fprintln(w, "reconstructed graph:")
	fmt.Fprint(w, dfd.GraphDOT())

	// 5. Stop whenever `addone` receives a token, three times.
	if _, err = dfd.CatchTokensOf("addone", map[string]uint64{"i": 1}); err != nil {
		return nil, 0, err
	}
	for stop := 1; stop <= 3; stop++ {
		ev := low.Continue()
		fmt.Fprintf(w, "stop %d: %s\n", stop, ev.Reason)
		// The model keeps tokens as records; the interface's last token
		// is built from its record when read.
		in, err := dfd.Connection("addone::i")
		if err != nil {
			return nil, 0, err
		}
		fmt.Fprintf(w, "  last token: %s\n", in.LastToken().Hop.String())
	}

	// 6. Let the application finish and print what came out.
	for {
		ev := low.Continue()
		if ev.Kind == lowdbg.StopDone {
			break
		}
	}
	fmt.Fprint(w, "outputs: ")
	for _, v := range col.Values {
		fmt.Fprintf(w, "%d ", v.I)
	}
	fmt.Fprintf(w, "\nsimulated time: %s\n", k.Now())

	// 7. Observability artifacts: the timeline for ui.perfetto.dev and
	//    the metrics registry dump.
	if timelinePath != "" {
		names := make(map[int32]string)
		for _, l := range dfd.Links() {
			names[int32(l.ID)] = l.Src.Qualified() + "->" + l.Dst.Qualified()
		}
		linkName := func(id int32) string {
			if n, ok := names[id]; ok {
				return n
			}
			return fmt.Sprintf("link#%d", id)
		}
		f, err := os.Create(timelinePath)
		if err != nil {
			return nil, 0, err
		}
		if err := obs.WriteChromeTrace(f, rec.Snapshot(), uint64(k.Now()), linkName); err != nil {
			f.Close()
			return nil, 0, err
		}
		if err := f.Close(); err != nil {
			return nil, 0, err
		}
		fmt.Fprintf(w, "wrote timeline %s (open in ui.perfetto.dev)\n", timelinePath)
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return nil, 0, err
		}
		rec.Metrics.WriteText(f)
		if err := f.Close(); err != nil {
			return nil, 0, err
		}
		fmt.Fprintf(w, "wrote metrics %s\n", metricsPath)
	}
	return rec, k.Now(), nil
}
