package cli

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// session builds the full stack around the H.264 case study and boots
// the initialization phase.
func session(t *testing.T) (*CLI, *strings.Builder) {
	t.Helper()
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	d := core.Attach(low)
	m := mach.New(k, mach.Config{})
	rt := pedf.NewRuntime(k, m, low)
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	bits, err := h264.Encode(h264.GenerateFrame(p), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h264.Build(rt, p, bits, false); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if st, err := k.RunUntil(0); err != nil || st != sim.RunHorizon {
		t.Fatalf("boot: %v %v", st, err)
	}
	var out strings.Builder
	return New(d, &out), &out
}

// exec runs a command and returns the output produced since the last call.
func exec(t *testing.T, c *CLI, out *strings.Builder, cmd string) string {
	t.Helper()
	start := out.Len()
	if err := c.Execute(cmd); err != nil {
		t.Fatalf("%q: %v", cmd, err)
	}
	return out.String()[start:]
}

func execErr(t *testing.T, c *CLI, cmd string) error {
	t.Helper()
	err := c.Execute(cmd)
	if err == nil {
		t.Fatalf("%q succeeded, want error", cmd)
	}
	return err
}

func TestCatchWorkTranscript(t *testing.T) {
	// (gdb) filter pipe catch work
	c, out := session(t)
	got := exec(t, c, out, "filter pipe catch work")
	if !strings.Contains(got, "Catchpoint 1 (work of filter pipe)") {
		t.Errorf("output: %s", got)
	}
	got = exec(t, c, out, "continue")
	if !strings.Contains(got, "pipe work method triggered") {
		t.Errorf("stop output: %s", got)
	}
}

func TestCatchTokensTranscript(t *testing.T) {
	// (gdb) filter ipred catch Pipe_in=1,Hwcfg_in=1   — paper command ①
	// (gdb) filter ipred catch *in=1                  — paper command ②
	c, out := session(t)
	got := exec(t, c, out, "filter ipred catch Pipe_in=1,Hwcfg_in=1")
	if !strings.Contains(got, "Catchpoint 1 (receive tokens of filter ipred: Hwcfg_in=1,Pipe_in=1)") {
		t.Errorf("output: %s", got)
	}
	got = exec(t, c, out, "filter ipred catch *in=1")
	if !strings.Contains(got, "Catchpoint 2") {
		t.Errorf("output: %s", got)
	}
	got = exec(t, c, out, "continue")
	if !strings.Contains(got, "Stopped after receiving token from `ipred::") {
		t.Errorf("stop output: %s", got)
	}
}

func TestRecordPrintTranscript(t *testing.T) {
	// (gdb) iface hwcfg::pipe_MbType_out record
	// (gdb) iface hwcfg::pipe_MbType_out print
	//	#1 (U16) 5 ...
	c, out := session(t)
	exec(t, c, out, "iface hwcfg::pipe_MbType_out record")
	exec(t, c, out, "continue") // run to completion
	got := exec(t, c, out, "iface hwcfg::pipe_MbType_out print")
	if !strings.HasPrefix(got, "#1 (U16) ") {
		t.Errorf("recorded output:\n%s", got)
	}
	// Every recorded value is a legal MbType code.
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		if !strings.Contains(line, "(U16) 5") && !strings.Contains(line, "(U16) 10") &&
			!strings.Contains(line, "(U16) 15") {
			t.Errorf("unexpected MbType line %q", line)
		}
	}
	exec(t, c, out, "iface hwcfg::pipe_MbType_out norecord")
}

func TestSplitterAndLastTokenTranscript(t *testing.T) {
	// (gdb) filter red configure splitter
	// (gdb) filter pipe catch Red2PipeCbMB_in
	// (gdb) filter pipe info last_token
	//	#1 red -> pipe (CbCrMB_t) {...}
	//	#2 bh -> red (...) ...
	c, out := session(t)
	got := exec(t, c, out, "filter red configure splitter")
	if !strings.Contains(got, "configured as splitter") {
		t.Errorf("output: %s", got)
	}
	exec(t, c, out, "filter pipe catch Red2PipeCbMB_in=1")
	got = exec(t, c, out, "continue")
	if !strings.Contains(got, "Stopped after receiving token from `pipe::Red2PipeCbMB_in'") {
		t.Errorf("stop: %s", got)
	}
	got = exec(t, c, out, "filter pipe info last_token")
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 2 {
		t.Fatalf("path lines = %d, want 2:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[0], "#1 red -> pipe (CbCrMB_t) {Addr = 0") {
		t.Errorf("hop 1 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "#2 bh -> red (I32) ") {
		t.Errorf("hop 2 = %q", lines[1])
	}
}

func TestTwoLevelPrintTranscript(t *testing.T) {
	// (gdb) filter pipe print last_token
	// $1 = (CbCrMB_t){Addr = ..., ...}
	// (gdb) print $1
	c, out := session(t)
	exec(t, c, out, "filter pipe catch Red2PipeCbMB_in=1")
	exec(t, c, out, "continue")
	got := exec(t, c, out, "filter pipe print last_token")
	if !strings.Contains(got, "$1 = (CbCrMB_t){Addr = 0, InterNotIntra = 0, Izz = ") {
		t.Errorf("print output: %s", got)
	}
	got = exec(t, c, out, "print $1")
	if !strings.Contains(got, "$2 = (CbCrMB_t){Addr = 0") {
		t.Errorf("history print: %s", got)
	}
}

func TestStepBothTranscript(t *testing.T) {
	// Stop at ipred's dataflow assignment, then step_both with no args.
	c, out := session(t)
	line := h264.IpredAssignLine()
	exec(t, c, out, "break ipred.c:"+itoa(line))
	got := exec(t, c, out, "continue")
	if !strings.Contains(got, "ipred.c") {
		t.Errorf("stop: %s", got)
	}
	got = exec(t, c, out, "list")
	if !strings.Contains(got, "pedf.io.Add2Dblock_ipf_out") {
		t.Errorf("list: %s", got)
	}
	got = exec(t, c, out, "step_both")
	if !strings.Contains(got, "Temporary breakpoint inserted after input interface `ipf::Add2Dblock_ipred_in'") ||
		!strings.Contains(got, "Temporary breakpoint inserted after output interface `ipred::Add2Dblock_ipf_out'") {
		t.Errorf("step_both output: %s", got)
	}
	stops := 0
	for i := 0; i < 2; i++ {
		got = exec(t, c, out, "continue")
		if strings.Contains(got, "Stopped after") {
			stops++
		}
	}
	if stops != 2 {
		t.Errorf("step_both produced %d stops, want 2", stops)
	}
}

func itoa(n int) string {
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	if s == "" {
		return "0"
	}
	return s
}

func TestGraphCommand(t *testing.T) {
	c, out := session(t)
	got := exec(t, c, out, "graph")
	for _, frag := range []string{`digraph "dataflow"`, `"red"`, `"pipe"`, `label="front"`, `label="pred"`} {
		if !strings.Contains(got, frag) {
			t.Errorf("graph missing %q", frag)
		}
	}
}

func TestInfoCommands(t *testing.T) {
	c, out := session(t)
	exec(t, c, out, "filter pipe catch work")
	exec(t, c, out, "continue")
	got := exec(t, c, out, "info filters")
	if !strings.Contains(got, "pipe") || !strings.Contains(got, "running") {
		t.Errorf("info filters:\n%s", got)
	}
	got = exec(t, c, out, "info links")
	if !strings.Contains(got, "pipe::pipe_ipf_out -> ipf::pipe_in") {
		t.Errorf("info links:\n%s", got)
	}
	got = exec(t, c, out, "info scheduling front")
	if !strings.Contains(got, "module front: step") {
		t.Errorf("info scheduling:\n%s", got)
	}
	got = exec(t, c, out, "info threads")
	if !strings.Contains(got, "flt.pipe") {
		t.Errorf("info threads:\n%s", got)
	}
	got = exec(t, c, out, "info breakpoints")
	if !strings.Contains(got, "catch#") && !strings.Contains(got, "#1") {
		t.Errorf("info breakpoints:\n%s", got)
	}
}

func TestBacktraceAndStepping(t *testing.T) {
	c, out := session(t)
	line := h264.IpredAssignLine()
	exec(t, c, out, "break ipred.c:"+itoa(line))
	exec(t, c, out, "continue")
	got := exec(t, c, out, "backtrace")
	if !strings.Contains(got, "#0  work ()") {
		t.Errorf("backtrace:\n%s", got)
	}
	got = exec(t, c, out, "next")
	if !strings.Contains(got, "work ()") {
		t.Errorf("next:\n%s", got)
	}
	got = exec(t, c, out, "print bx")
	if !strings.Contains(got, "$1 = (U32) ") {
		t.Errorf("print local:\n%s", got)
	}
}

func TestWatchAndDeleteCommands(t *testing.T) {
	c, out := session(t)
	got := exec(t, c, out, "watch "+dbginfo.MangleFilterData("bh", "mbs_parsed"))
	if !strings.Contains(got, "Watchpoint") {
		t.Errorf("watch: %s", got)
	}
	// Parse the id out of "Watchpoint N: sym".
	fields := strings.Fields(got)
	id := strings.TrimSuffix(fields[1], ":")
	got = exec(t, c, out, "continue")
	if !strings.Contains(got, "changed 0 -> 1") {
		t.Errorf("watch stop: %s", got)
	}
	exec(t, c, out, "delete "+id)
	got = exec(t, c, out, "continue")
	if !strings.Contains(got, "program finished") {
		t.Errorf("after delete: %s", got)
	}
}

func TestInjectDropReplacePeek(t *testing.T) {
	c, out := session(t)
	got := exec(t, c, out, "inject red::bh_in 41")
	if !strings.Contains(got, "Injected token 41") {
		t.Errorf("inject: %s", got)
	}
	exec(t, c, out, "inject red::bh_in u16:7")
	got = exec(t, c, out, "peek red::bh_in 0")
	if !strings.Contains(got, "$1 = (U32) 41") {
		t.Errorf("peek: %s", got)
	}
	got = exec(t, c, out, "replace red::bh_in 0 99")
	if !strings.Contains(got, "Replaced token 0") {
		t.Errorf("replace: %s", got)
	}
	got = exec(t, c, out, "drop red::bh_in 1")
	if !strings.Contains(got, "Dropped token 1") {
		t.Errorf("drop: %s", got)
	}
	got = exec(t, c, out, "peek red::bh_in 0")
	if !strings.Contains(got, "$2 = (U32) 99") {
		t.Errorf("peek after replace: %s", got)
	}
}

func TestModuleCatchStep(t *testing.T) {
	c, out := session(t)
	got := exec(t, c, out, "module front catch step")
	if !strings.Contains(got, "Catchpoint 1 (step begin of module front)") {
		t.Errorf("output: %s", got)
	}
	got = exec(t, c, out, "continue")
	if !strings.Contains(got, "beginning of step") {
		t.Errorf("stop: %s", got)
	}
	exec(t, c, out, "delete catch 1")
	exec(t, c, out, "module pred catch step end")
	got = exec(t, c, out, "continue")
	if !strings.Contains(got, "end of step") {
		t.Errorf("stop: %s", got)
	}
}

func TestSetDataBreakpoints(t *testing.T) {
	c, out := session(t)
	got := exec(t, c, out, "set data-breakpoints off")
	if !strings.Contains(got, "off") || c.Low.DataBreakpointsEnabled {
		t.Error("option 1 not applied")
	}
	exec(t, c, out, "set data-breakpoints on")
	if !c.Low.DataBreakpointsEnabled {
		t.Error("option 1 not re-enabled")
	}
}

func TestEnableDisable(t *testing.T) {
	c, out := session(t)
	exec(t, c, out, "filter pipe catch work")
	got := exec(t, c, out, "disable catch 1")
	if !strings.Contains(got, "Catchpoint 1 disabled") {
		t.Errorf("disable: %s", got)
	}
	// Disabled catchpoint: the run finishes without stopping at it.
	got = exec(t, c, out, "continue")
	if !strings.Contains(got, "program finished") {
		t.Errorf("run with disabled catch: %s", got)
	}
	exec(t, c, out, "enable catch 1")
	// Breakpoint toggling (parse the real id; internal breakpoints
	// consumed the low numbers).
	c2, out2 := session(t)
	got = exec(t, c2, out2, "break IpfFilter_work_function")
	id := strings.Fields(got)[1]
	got = exec(t, c2, out2, "disable "+id)
	if !strings.Contains(got, "Breakpoint "+id+" disabled") {
		t.Errorf("disable bp: %s", got)
	}
	got = exec(t, c2, out2, "continue")
	if !strings.Contains(got, "program finished") {
		t.Errorf("run with disabled bp: %s", got)
	}
	execErr(t, c2, "disable 99")
	execErr(t, c2, "disable catch 99")
	execErr(t, c2, "disable catch x")
	execErr(t, c2, "enable x")
	execErr(t, c2, "enable")
}

func TestInfoIface(t *testing.T) {
	c, out := session(t)
	exec(t, c, out, "filter pipe catch Red2PipeCbMB_in=1")
	exec(t, c, out, "continue")
	got := exec(t, c, out, "info iface pipe::Red2PipeCbMB_in")
	for _, frag := range []string{"pipe::Red2PipeCbMB_in (input CbCrMB_t)",
		"received=1", "last token: red -> pipe"} {
		if !strings.Contains(got, frag) {
			t.Errorf("info iface missing %q:\n%s", frag, got)
		}
	}
	execErr(t, c, "info iface ghost::x")
	execErr(t, c, "info iface")
}

func TestCatchpointsListing(t *testing.T) {
	c, out := session(t)
	exec(t, c, out, "filter pipe catch *in=1")
	got := exec(t, c, out, "catchpoints")
	if !strings.Contains(got, "catch#1 receive pipe") {
		t.Errorf("catchpoints: %s", got)
	}
}

func TestCompletion(t *testing.T) {
	// The paper: "filter and connection names were suggested by the
	// auto-completion mechanism".
	c, _ := session(t)
	got := c.CompleteLine("filter ip")
	joined := strings.Join(got, " ")
	if !strings.Contains(joined, "ipred") || !strings.Contains(joined, "ipf") {
		t.Errorf("completion = %v", got)
	}
	got = c.CompleteLine("iface hwcfg::")
	joined = strings.Join(got, " ")
	if !strings.Contains(joined, "hwcfg::pipe_MbType_out") {
		t.Errorf("iface completion = %v", got)
	}
	got = c.CompleteLine("break Ipf")
	if len(got) == 0 || !strings.Contains(strings.Join(got, " "), "IpfFilter_work_function") {
		t.Errorf("symbol completion = %v", got)
	}
}

func TestErrorPaths(t *testing.T) {
	c, _ := session(t)
	for _, cmd := range []string{
		"bogus",
		"filter",
		"filter ghost catch work",
		"filter pipe catch",
		"filter pipe bogus",
		"filter pipe catch a_in=x",
		"filter pipe configure bogus",
		"filter pipe info other",
		"module front catch",
		"iface pipe::a_in bogus",
		"iface",
		"inject onearg",
		"inject ghost::x 1",
		"inject red::bh_in notanumber",
		"inject red::bh_in zz:1",
		"drop red::bh_in x",
		"replace red::bh_in 0",
		"peek red::bh_in x",
		"break",
		"break nosuchsymbol",
		"break nosuchfile.c:99",
		"watch nope",
		"watch",
		"delete x",
		"delete catch x",
		"print",
		"print $9",
		"print nosuchvar",
		"list x",
		"thread x",
		"thread 9999",
		"info",
		"info bogus",
		"info scheduling",
		"info scheduling ghost",
		"set bogus on",
		"set data-breakpoints maybe",
		"step",
		"backtrace",
	} {
		execErr(t, c, cmd)
	}
}

func TestFreezeThawCommands(t *testing.T) {
	c, out := session(t)
	// pipe needs an execution context first.
	exec(t, c, out, "filter pipe catch work")
	exec(t, c, out, "continue")
	exec(t, c, out, "delete catch 1")
	got := exec(t, c, out, "filter pipe freeze")
	if !strings.Contains(got, "Execution path of `pipe' frozen") {
		t.Errorf("freeze: %s", got)
	}
	got = exec(t, c, out, "continue")
	if !strings.Contains(got, "deadlock") && !strings.Contains(got, "program finished") {
		t.Errorf("run with frozen pipe: %s", got)
	}
	got = exec(t, c, out, "filter pipe thaw")
	if !strings.Contains(got, "released") {
		t.Errorf("thaw: %s", got)
	}
	got = exec(t, c, out, "continue")
	if !strings.Contains(got, "program finished") {
		t.Errorf("after thaw: %s", got)
	}
	execErr(t, c, "filter ghost freeze")
	execErr(t, c, "filter ghost thaw")
}

func TestIfaceCatchContent(t *testing.T) {
	c, out := session(t)
	// Scalar content: stop when hwcfg emits MbType 10 (an H-mode block).
	got := exec(t, c, out, "iface pipe::MbType_in catch 10")
	if !strings.Contains(got, "Catchpoint 1 (content 10 on pipe::MbType_in)") {
		t.Errorf("catch output: %s", got)
	}
	got = exec(t, c, out, "continue")
	if !strings.Contains(got, "token content matched MbType_in 10 on `pipe::MbType_in'") {
		t.Errorf("stop: %s", got)
	}
	// Struct-field content: stop when ipred receives the block at Addr 5.
	got = exec(t, c, out, "iface ipred::Pipe_in catch Addr=5")
	if !strings.Contains(got, "Catchpoint 2 (content Addr=5 on ipred::Pipe_in)") {
		t.Errorf("catch output: %s", got)
	}
	exec(t, c, out, "delete catch 1")
	got = exec(t, c, out, "continue")
	if !strings.Contains(got, "token content matched Pipe_in Addr=5 on `ipred::Pipe_in'") {
		t.Errorf("stop: %s", got)
	}
	got = exec(t, c, out, "filter ipred print last_token")
	if !strings.Contains(got, "{Addr = 5") {
		t.Errorf("last token: %s", got)
	}
	execErr(t, c, "iface pipe::MbType_in catch notanumber")
	execErr(t, c, "iface pipe::MbType_in catch")
	execErr(t, c, "iface ghost::x catch 1")
}

func TestFilterInfoStateAndWatch(t *testing.T) {
	c, out := session(t)
	exec(t, c, out, "filter red configure splitter")
	exec(t, c, out, "filter pipe catch Red2PipeCbMB_in=1")
	exec(t, c, out, "continue")
	got := exec(t, c, out, "filter red info state")
	for _, frag := range []string{
		"filter red (module pred):",
		"behaviour splitter",
		"in  bh_in",
		"out Red2PipeCbMB_out",
		"last token:",
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("info state missing %q:\n%s", frag, got)
		}
	}
	// Watch a filter's private data by its plain name.
	got = exec(t, c, out, "filter bh watch mbs_parsed")
	if !strings.Contains(got, "BhFilter_data_mbs_parsed (bh.mbs_parsed)") {
		t.Errorf("watch output: %s", got)
	}
	got = exec(t, c, out, "continue")
	if !strings.Contains(got, "BhFilter_data_mbs_parsed changed") {
		t.Errorf("watch stop: %s", got)
	}
	// Attributes resolve through the attr_ scheme.
	got = exec(t, c, out, "filter red watch qp")
	if !strings.Contains(got, "RedFilter_data_attr_qp") {
		t.Errorf("attr watch: %s", got)
	}
	execErr(t, c, "filter red watch nope")
	execErr(t, c, "filter ghost watch x")
	execErr(t, c, "filter ghost info state")
	execErr(t, c, "filter red watch")
}

func TestTraceCommandWithoutRecorder(t *testing.T) {
	c, _ := session(t)
	execErr(t, c, "trace")
	execErr(t, c, "trace balance")
}

// The trace views fold the obs ring: the dump holds one line per push,
// pop and scheduling event, a drained world balances every link, the
// activity counts add up to the dump, and `trace n` is the dump's tail.
func TestTraceViewsFoldTheRing(t *testing.T) {
	c, out := obsSession(t)
	if err := execErr(t, c, "trace"); !strings.Contains(err.Error(), "no trace recorder") {
		t.Errorf("trace over a ring without payloads: %v", err)
	}
	c.Obs.SetPayloads(true)
	exec(t, c, out, "continue")
	if c.Obs.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; enlarge the recorder", c.Obs.Dropped())
	}
	kinds := map[string]int{}
	c.Obs.Range(func(ev obs.Event) bool {
		switch ev.Kind {
		case obs.KPush:
			kinds["push"]++
		case obs.KPop:
			kinds["pop"]++
		case obs.KActorStart, obs.KActorSync, obs.KStepBegin, obs.KStepEnd:
			kinds["sched"]++
		}
		return true
	})
	dump := strings.Split(strings.TrimSuffix(exec(t, c, out, "trace 0"), "\n"), "\n")
	lines := map[string]int{}
	for _, line := range dump {
		f := strings.Fields(line)
		lines[f[1]]++
		switch {
		case f[1] == "sched" && len(f) != 3:
			t.Errorf("sched line names more than its actor: %q", line)
		case f[1] != "sched" && (!strings.Contains(f[2], "::") || f[3] != "<->" || len(f) < 6):
			t.Errorf("%s line lacks port, peer or value: %q", f[1], line)
		}
	}
	if kinds["push"] == 0 || kinds["sched"] == 0 || len(lines) != 3 ||
		lines["push"] != kinds["push"] || lines["pop"] != kinds["pop"] || lines["sched"] != kinds["sched"] {
		t.Errorf("dump lines by kind = %v, ring events = %v", lines, kinds)
	}
	if got := exec(t, c, out, "trace balance"); got != "" {
		t.Errorf("drained world is unbalanced:\n%s", got)
	}
	total := 0
	for _, line := range strings.Split(strings.TrimSpace(exec(t, c, out, "trace activity")), "\n") {
		var actor string
		var n int
		if _, err := fmt.Sscanf(line, "%s %d events", &actor, &n); err != nil {
			t.Fatalf("activity line %q: %v", line, err)
		}
		total += n
	}
	if total != len(dump) {
		t.Errorf("activity counts %d events, dump has %d", total, len(dump))
	}
	if got, want := exec(t, c, out, "trace 3"), strings.Join(dump[len(dump)-3:], "\n")+"\n"; got != want {
		t.Errorf("trace 3 = %q, want the dump's tail %q", got, want)
	}
	if err := execErr(t, c, "trace x"); !strings.Contains(err.Error(), "usage") {
		t.Errorf("bad argument error: %v", err)
	}
}

func TestQuitAndHelpAndRun(t *testing.T) {
	c, out := session(t)
	exec(t, c, out, "help")
	if !strings.Contains(out.String(), "Dataflow commands:") {
		t.Error("help missing dataflow section")
	}
	exec(t, c, out, "")
	exec(t, c, out, "quit")
	if !c.Quit() {
		t.Error("quit flag not set")
	}
	// Run loop over a scripted reader.
	c2, out2 := session(t)
	c2.Run(strings.NewReader("graph\nbogus command here\nquit\n"))
	s := out2.String()
	if !strings.Contains(s, "(gdb) ") || !strings.Contains(s, "error:") {
		t.Errorf("run output:\n%s", s)
	}
}

func TestFullDecodeUnderCLI(t *testing.T) {
	c, out := session(t)
	got := exec(t, c, out, "continue")
	if !strings.Contains(got, "program finished") {
		t.Errorf("final stop: %s", got)
	}
}

func TestAnalyzeCommand(t *testing.T) {
	// (gdb) analyze — graph checks over the reconstructed model. The
	// booted H.264 graph is well-formed, so the report is clean.
	c, out := session(t)
	got := exec(t, c, out, "analyze")
	if !strings.Contains(got, "no issues found") {
		t.Errorf("analyze output: %s", got)
	}
	got = exec(t, c, out, "analyze json")
	if !strings.Contains(got, `"diagnostics"`) || !strings.Contains(got, `"errors": 0`) {
		t.Errorf("analyze json output: %s", got)
	}
	if err := execErr(t, c, "analyze dot"); !strings.Contains(err.Error(), "usage") {
		t.Errorf("bad mode error: %v", err)
	}
	if !strings.Contains(exec(t, c, out, "help"), "analyze [json]") {
		t.Error("help does not mention analyze")
	}
}

// obsSession is session() with an observability recorder installed on
// the kernel before the stack attaches, like cmd/dfdbg does.
func obsSession(t *testing.T) (*CLI, *strings.Builder) {
	t.Helper()
	k := sim.NewKernel()
	orec := obs.NewRecorder(1 << 14)
	k.SetObserver(orec)
	low := lowdbg.New(k, dbginfo.NewTable())
	d := core.Attach(low)
	m := mach.New(k, mach.Config{})
	rt := pedf.NewRuntime(k, m, low)
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	bits, err := h264.Encode(h264.GenerateFrame(p), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h264.Build(rt, p, bits, false); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if st, err := k.RunUntil(0); err != nil || st != sim.RunHorizon {
		t.Fatalf("boot: %v %v", st, err)
	}
	var out strings.Builder
	c := New(d, &out)
	c.Obs = orec
	return c, &out
}

func TestObsCommandsWithoutRecorder(t *testing.T) {
	c, _ := session(t)
	execErr(t, c, "metrics")
	execErr(t, c, "profile")
	execErr(t, c, "timeline export x.json")
}

func TestMetricsCommand(t *testing.T) {
	c, out := obsSession(t)
	exec(t, c, out, "continue")
	got := exec(t, c, out, "metrics")
	for _, want := range []string{"sim_dispatches_total", "pedf_actor_firings_total", "dbg_hook_calls_total"} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics output missing %s:\n%s", want, got)
		}
	}
	got = exec(t, c, out, "metrics prom")
	if !strings.Contains(got, "# TYPE sim_dispatches_total counter") {
		t.Errorf("prometheus output:\n%s", got)
	}
	if err := execErr(t, c, "metrics bogus"); !strings.Contains(err.Error(), "usage") {
		t.Errorf("bad mode error: %v", err)
	}
}

func TestProfileCommand(t *testing.T) {
	c, out := obsSession(t)
	exec(t, c, out, "continue")
	got := exec(t, c, out, "profile")
	if !strings.Contains(got, "actor") || !strings.Contains(got, "busy") {
		t.Errorf("profile output:\n%s", got)
	}
	got = exec(t, c, out, "profile 3")
	if !strings.Contains(got, "-- PE --") {
		t.Errorf("profile 3 output:\n%s", got)
	}
	got = exec(t, c, out, "profile folded")
	if !strings.Contains(got, ";busy ") && !strings.Contains(got, ";blocked ") {
		t.Errorf("folded output:\n%s", got)
	}
	execErr(t, c, "profile nope")
}

func TestTimelineExportCommand(t *testing.T) {
	c, out := obsSession(t)
	exec(t, c, out, "continue")
	path := t.TempDir() + "/timeline.json"
	// A session nobody granted files refuses, and creates nothing.
	if err := execErr(t, c, "timeline export "+path); !strings.Contains(err.Error(), "no access to the host's files") {
		t.Errorf("export without files: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("export without files touched %s: %v", path, err)
	}
	c.HostFiles = true
	got := exec(t, c, out, "timeline export "+path)
	if !strings.Contains(got, "wrote ") || !strings.Contains(got, "perfetto") {
		t.Errorf("export output: %s", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" || len(doc.TraceEvents) == 0 {
		t.Errorf("doc = %s %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	// stdout form
	got = exec(t, c, out, "timeline export -")
	if !strings.Contains(got, `"traceEvents"`) {
		t.Errorf("stdout export:\n%.200s", got)
	}
	execErr(t, c, "timeline")
	execErr(t, c, "timeline import x")
}

func TestCompleteCommandWords(t *testing.T) {
	c, _ := session(t)
	got := c.CompleteLine("time")
	found := false
	for _, s := range got {
		if s == "timeline" {
			found = true
		}
	}
	if !found {
		t.Errorf("CompleteLine(time) = %v, want timeline", got)
	}
	if len(c.CompleteLine("pro")) == 0 {
		t.Error("no completions for pro")
	}
}

// Every verb `help` lists completes from an empty line. A help line
// names its verb first; a later ` | ` alternative names either another
// verb or an argument of the first, and only a word Execute knows as a
// command counts as a verb.
func TestCompleteOffersEveryHelpVerb(t *testing.T) {
	c, out := session(t)
	offered := map[string]bool{}
	for _, w := range c.CompleteLine("") {
		offered[w] = true
	}
	for _, line := range strings.Split(exec(t, c, out, "help"), "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue
		}
		usage, _, _ := strings.Cut(strings.TrimSpace(line), "  ")
		for _, alt := range strings.Split(usage, " | ") {
			for _, verb := range strings.Split(strings.Fields(alt)[0], "|") {
				if offered[verb] {
					continue
				}
				if err := c.Execute(verb); err != nil && strings.HasPrefix(err.Error(), "unknown command") {
					continue
				}
				t.Errorf("help lists %q (%q), but CompleteLine(\"\") does not offer it", verb, strings.TrimSpace(line))
			}
		}
	}
}
