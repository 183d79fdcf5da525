package trace_test

import (
	"fmt"
	"strings"
	"testing"

	"dfdbg/internal/cli"
	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
	"dfdbg/internal/trace"
)

var u32 = filterc.Scalar(filterc.U32)

// tracedSession runs a 2-filter pipeline of n steps to its end with the
// recorder trace.Attach installs, and returns a CLI whose `trace` views
// fold that recorder's ring.
func tracedSession(t *testing.T, n int) (*cli.CLI, *strings.Builder) {
	t.Helper()
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	trace.Attach(low)
	d := core.Attach(low)
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 4})
	rt := pedf.NewRuntime(k, m, low)
	mod, _ := rt.NewModule("mod", nil)
	min, _ := mod.AddPort("in", pedf.In, u32)
	mout, _ := mod.AddPort("out", pedf.Out, u32)
	fwd := `void work() { pedf.io.o[0] = pedf.io.i[0] + 1; }`
	fa, _ := rt.NewFilter(mod, pedf.FilterSpec{Name: "fa", Source: fwd,
		Inputs: []pedf.PortSpec{{Name: "i", Type: u32}}, Outputs: []pedf.PortSpec{{Name: "o", Type: u32}}})
	fb, _ := rt.NewFilter(mod, pedf.FilterSpec{Name: "fb", Source: fwd,
		Inputs: []pedf.PortSpec{{Name: "i", Type: u32}}, Outputs: []pedf.PortSpec{{Name: "o", Type: u32}}})
	rt.SetController(mod, pedf.ControllerSpec{
		Source: fmt.Sprintf(`u32 work() { ACTOR_FIRE("fa"); ACTOR_FIRE("fb"); WAIT_FOR_ACTOR_SYNC(); if (STEP_INDEX() + 1 >= %d) return 0; return 1; }`, n),
	})
	rt.Bind(min, fa.In("i"))
	rt.Bind(fa.Out("o"), fb.In("i"))
	rt.Bind(fb.Out("o"), mout)
	var feed []filterc.Value
	for i := 0; i < n; i++ {
		feed = append(feed, filterc.Int(filterc.U32, int64(i)))
	}
	rt.FeedInput(min, feed)
	rt.CollectOutput(mout)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if ev := low.Continue(); ev.Kind != lowdbg.StopDone || ev.Deadlock != nil {
		t.Fatalf("run = %v", ev)
	}
	var out strings.Builder
	c := cli.New(d, &out)
	c.Obs = k.Observer()
	if c.Obs.Dropped() != 0 {
		t.Fatalf("ring dropped %d events", c.Obs.Dropped())
	}
	return c, &out
}

func run(t *testing.T, c *cli.CLI, out *strings.Builder, line string) string {
	t.Helper()
	out.Reset()
	if err := c.Execute(line); err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	return out.String()
}

// dumpKinds counts the lines of a trace dump by their kind word.
func dumpKinds(dump string) map[string]int {
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(dump, "\n"), "\n") {
		if f := strings.Fields(line); len(f) > 1 {
			kinds[f[1]]++
		}
	}
	return kinds
}

func TestRecorderCapturesEvents(t *testing.T) {
	c, out := tracedSession(t, 3)
	kinds := dumpKinds(run(t, c, out, "trace 0"))
	// Pushes: feeder 3 + fa 3 + fb 3 = 9. Pops: fa 3 + fb 3 + sink 3 = 9.
	if kinds["push"] != 9 {
		t.Errorf("pushes = %d, want 9", kinds["push"])
	}
	if kinds["pop"] != 9 {
		t.Errorf("pops = %d, want 9", kinds["pop"])
	}
	if kinds["sched"] == 0 {
		t.Error("no scheduling events recorded")
	}
	if len(kinds) != 3 {
		t.Errorf("dump kinds = %v, want push, pop and sched only", kinds)
	}
}

func TestLinkBalanceDetectsDrainedLinks(t *testing.T) {
	c, out := tracedSession(t, 4)
	if dumpKinds(run(t, c, out, "trace 0"))["push"] == 0 {
		t.Fatal("no tokens crossed a link")
	}
	if got := run(t, c, out, "trace balance"); got != "" {
		t.Errorf("drained links are unbalanced:\n%s", got)
	}
}

func TestActorActivity(t *testing.T) {
	c, out := tracedSession(t, 2)
	act := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(run(t, c, out, "trace activity")), "\n") {
		var actor string
		var n int
		if _, err := fmt.Sscanf(line, "%s %d events", &actor, &n); err != nil {
			t.Fatalf("activity line %q: %v", line, err)
		}
		act[actor] = n
	}
	if act["fa"] == 0 || act["fb"] == 0 || act["env"] == 0 {
		t.Errorf("activity = %v", act)
	}
}

func TestDump(t *testing.T) {
	c, out := tracedSession(t, 2)
	full := run(t, c, out, "trace 0")
	if !strings.Contains(full, "push") || !strings.Contains(full, "fa") {
		t.Errorf("dump:\n%s", full)
	}
	tail := run(t, c, out, "trace 3")
	if got := strings.Count(tail, "\n"); got != 3 {
		t.Errorf("trace 3 has %d lines", got)
	}
	if !strings.HasSuffix(full, tail) {
		t.Errorf("trace 3 = %q is not the dump's tail", tail)
	}
}
