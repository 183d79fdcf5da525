// Tokenpath: follow a token over multiple actors (paper Section VI-D).
// A splitter filter fans data out to two consumers; after annotating its
// behaviour, `info last_token` reconstructs the provenance chain of any
// received token back through the splitter to the original producer.
//
//	go run ./examples/tokenpath
package main

import (
	"fmt"
	"log"

	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

func main() {
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	dfd := core.Attach(low)
	m := mach.New(k, mach.Config{Clusters: 2, PEsPerCluster: 4})
	rt := pedf.NewRuntime(k, m, low)
	u32 := filterc.Scalar(filterc.U32)

	mod, err := rt.NewModule("m", nil)
	check(err)
	in, _ := mod.AddPort("in", pedf.In, u32)
	outA, _ := mod.AddPort("out_a", pedf.Out, u32)
	outB, _ := mod.AddPort("out_b", pedf.Out, u32)

	// bh produces data; red splits it to two processing branches.
	bh, err := rt.NewFilter(mod, pedf.FilterSpec{
		Name:    "bh",
		Source:  `void work() { pedf.io.o[0] = pedf.io.i[0] * 10; }`,
		Inputs:  []pedf.PortSpec{{Name: "i", Type: u32}},
		Outputs: []pedf.PortSpec{{Name: "o", Type: u32}},
	})
	check(err)
	red, err := rt.NewFilter(mod, pedf.FilterSpec{
		Name: "red",
		Source: `void work() {
	u32 v = pedf.io.i[0];
	pedf.io.a[0] = v + 1;
	pedf.io.b[0] = v + 2;
}`,
		Inputs:  []pedf.PortSpec{{Name: "i", Type: u32}},
		Outputs: []pedf.PortSpec{{Name: "a", Type: u32}, {Name: "b", Type: u32}},
	})
	check(err)
	pipe, err := rt.NewFilter(mod, pedf.FilterSpec{
		Name:    "pipe",
		Source:  `void work() { pedf.io.o[0] = pedf.io.i[0]; }`,
		Inputs:  []pedf.PortSpec{{Name: "i", Type: u32}},
		Outputs: []pedf.PortSpec{{Name: "o", Type: u32}},
	})
	check(err)
	ipf, err := rt.NewFilter(mod, pedf.FilterSpec{
		Name:    "ipf",
		Source:  `void work() { pedf.io.o[0] = pedf.io.i[0]; }`,
		Inputs:  []pedf.PortSpec{{Name: "i", Type: u32}},
		Outputs: []pedf.PortSpec{{Name: "o", Type: u32}},
	})
	check(err)
	_, err = rt.SetController(mod, pedf.ControllerSpec{
		Source: `u32 work() {
	ACTOR_FIRE("bh");
	ACTOR_FIRE("red");
	ACTOR_FIRE("pipe");
	ACTOR_FIRE("ipf");
	WAIT_FOR_ACTOR_SYNC();
	if (STEP_INDEX() + 1 >= 3) return 0;
	return 1;
}`,
	})
	check(err)
	check(rt.Bind(in, bh.In("i")))
	check(rt.Bind(bh.Out("o"), red.In("i")))
	check(rt.Bind(red.Out("a"), pipe.In("i")))
	check(rt.Bind(red.Out("b"), ipf.In("i")))
	check(rt.Bind(pipe.Out("o"), outA))
	check(rt.Bind(ipf.Out("o"), outB))
	check(rt.FeedInput(in, []filterc.Value{
		filterc.Int(filterc.U32, 12), filterc.Int(filterc.U32, 12),
		filterc.Int(filterc.U32, 127),
	}))
	_, err = rt.CollectOutput(outA)
	check(err)
	_, err = rt.CollectOutput(outB)
	check(err)
	check(rt.Start())
	if _, err := k.RunUntil(0); err != nil {
		log.Fatal(err)
	}

	// Annotate behaviours so the debugger can link tokens across actors:
	// without this, the paths below would stop at the first hop (the
	// debugger "cannot automatically figure it out").
	check(dfd.ConfigureBehavior("red", core.BehaviorSplitter))
	check(dfd.ConfigureBehavior("bh", core.BehaviorMap))

	// Stop when pipe receives the token derived from the value 127.
	_, err = dfd.CatchContentOf("pipe::i", "== 1271", func(v filterc.Value) bool {
		return v.IsScalar() && v.I == 127*10+1
	})
	check(err)
	ev := low.Continue()
	fmt.Println(ev.Reason)
	// LastToken reads the token back from the debugger's token store:
	// its payload, and the chain of primary origins the store keeps.
	tok, err := dfd.LastToken("pipe")
	check(err)
	fmt.Println("\ntoken path (most recent hop first):")
	fmt.Print(tok.FormatPath())
	fmt.Println("\nthe chain reads: pipe got it from red, which derived it from bh's")
	fmt.Println("output, which transformed the original 127 fed by the host.")
	low.Continue()
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
