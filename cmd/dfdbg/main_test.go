package main

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dfdbg/internal/cli"
	"dfdbg/internal/h264"
)

func TestScriptedSession(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	script := strings.Join([]string{
		"graph",
		"filter pipe catch work",
		"continue",
		"info filters",
		"delete catch 1",
		"continue",
		"quit",
	}, "\n")
	var out strings.Builder
	if err := run(p, "none", faultOpts{}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{
		"dfdbg: dataflow debugger on the H.264 case study (16x16, 16 macroblocks, bug=none)",
		"actors and 13 links reconstructed",
		"(gdb) ",
		"pipe work method triggered",
		"program finished",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("session missing %q:\n%s", frag, s)
		}
	}
}

// The interactive analyze/regions commands must run the full pipeline:
// classifier verdicts (FC008 for bh), the DF008 region report, and the
// region clustering DOT with the proven repetition counts.
func TestAnalyzeAndRegionsCommands(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	script := strings.Join([]string{
		"analyze",
		"regions",
		"quit",
	}, "\n")
	var out strings.Builder
	if err := run(p, "none", faultOpts{}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{
		"DF008", "FC008", "statically schedulable",
		"subgraph", "region #0", "pipe x1",
		"branch on a non-constant condition",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("analyze/regions output missing %q:\n%s", frag, s)
		}
	}
}

func TestTraceCommands(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	script := strings.Join([]string{
		"continue",
		"trace",
		"trace 5",
		"trace balance",
		"trace activity",
		"quit",
	}, "\n")
	var out strings.Builder
	if err := run(p, "none", faultOpts{}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "push") || !strings.Contains(s, "events") {
		t.Errorf("trace output missing:\n%s", s)
	}
}

func TestSessionWithInjectedBug(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	var out strings.Builder
	err := run(p, "swapped-mb-inputs", faultOpts{}, strings.NewReader("continue\nquit\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "bug=swapped-mb-inputs") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestParseBug(t *testing.T) {
	for name, want := range map[string]h264.Bug{
		"none": h264.BugNone, "swapped-mb-inputs": h264.BugSwapMBInputs,
		"rate-stall": h264.BugRateStall, "bad-dc": h264.BugBadDC,
	} {
		got, err := h264.ParseBug(name)
		if err != nil || got != want {
			t.Errorf("ParseBug(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := h264.ParseBug("bogus"); err == nil {
		t.Error("bogus bug accepted")
	}
	var out strings.Builder
	if err := run(h264.Params{W: 16, H: 16, QP: 8}, "bogus", faultOpts{}, strings.NewReader(""), &out); err == nil {
		t.Error("run with bogus bug accepted")
	}
}

// Every world a REPL run builds is shut down when the run returns, at
// EOF or on quit, whether it is the boot world, a finished decode or a
// world retired by reverse execution: after several runs the goroutine
// count is back at its baseline.
func TestRunShutsDownItsWorlds(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	scripts := []string{
		"quit\n",
		"filter pipe catch work\ncontinue\n",
		"continue\nquit\n",
		"filter pipe catch work\ncontinue\nreverse-step\ncontinue\n",
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		for _, script := range scripts {
			if err := run(p, "none", faultOpts{}, strings.NewReader(script), io.Discard); err != nil {
				t.Fatalf("%q: %v", script, err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines %d after %d runs, baseline %d: a run left a world up", n, 3*len(scripts), base)
	}
}

// rewrite overwrites a file when the REPL first reads its input,
// which happens only after the world booted.
type rewrite struct{ path, text string }

func (r rewrite) Read([]byte) (int, error) {
	return 0, cmp.Or(os.WriteFile(r.path, []byte(r.text), 0o644), io.EOF)
}

// A -faults plan file is read once at startup: editing it mid-session
// must not leak into the worlds reverse execution rebuilds.
func TestFaultFileReadOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.txt")
	if err := os.WriteFile(path, []byte("drop link bh::stream_in @ 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := io.MultiReader(rewrite{path, "drop link bh::stream_in @ 5\n"},
		strings.NewReader("continue\nreverse-step\nquit\n"))
	var out strings.Builder
	if err := run(h264.Params{W: 16, H: 16, QP: 8, Seed: 7}, "none", faultOpts{spec: path}, in, &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "armed 1 fault(s)") || strings.Contains(s, "error:") {
		t.Errorf("session with a rewritten plan file:\n%s", s)
	}
}

// TestFaultLoadReplays pins that the REPL grants its worlds the host's
// files, rebuilt ones included: a journaled `fault load` replays when
// reverse-step rebuilds the world.
func TestFaultLoadReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.txt")
	if err := os.WriteFile(path, []byte("drop link bh::stream_in @ 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader("fault load " + path + "\ncontinue\nreverse-step\nfault status\nquit\n")
	var out strings.Builder
	if err := run(h264.Params{W: 16, H: 16, QP: 8, Seed: 7}, "none", faultOpts{}, in, &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "Reversed past the last control command") ||
		!strings.Contains(s, "fault injection: armed, 1 fault(s), 0 fired") || strings.Contains(s, "error:") {
		t.Errorf("fault load, continue, reverse-step, fault status:\n%s", s)
	}
}

// TestREPLStateDigest pins the captured state of the REPL world after
// boot and after a fixed script: a change to how the world is
// assembled would break restoring the checkpoints other builds wrote.
func TestREPLStateDigest(t *testing.T) {
	r, err := recipe(h264.Params{W: 16, H: 16, QP: 8, Seed: 7}, "none", faultOpts{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Shutdown()
	got := ""
	for _, line := range []string{"", "filter pipe catch work", "continue", "continue", ""} {
		if line == "" {
			b, err := st.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			got += fmt.Sprintf("%x\n", sha256.Sum256(b))
		} else if res := st.CLI.Dispatch(line); res.Err != nil {
			t.Fatalf("%q: %v", line, res.Err)
		}
	}
	want, err := os.ReadFile("testdata/state_digest.txt")
	if err != nil || got != string(want) {
		t.Errorf("REPL state digest changed:\n got %s\nwant %s%v", got, want, err)
	}
}

// TestBatchOutputStable builds the REPL world 20 times. With nothing
// armed its regions run batched: the dataflow layer's interception does
// not demote them. With several stop-capable items armed, `batch` must
// name the same one every time rather than whichever map iteration
// happened to visit first.
func TestBatchOutputStable(t *testing.T) {
	outputs := map[string]int{}
	for i := 0; i < 20; i++ {
		r, err := recipe(h264.Params{W: 16, H: 16, QP: 8, Seed: 7}, "none", faultOpts{}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		st, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		idle := st.CLI.Dispatch("batch")
		if idle.Err != nil || !strings.Contains(idle.Output, ": batched") || strings.Contains(idle.Output, "per-token") {
			t.Fatalf("nothing armed, `batch` printed %q (%v)", idle.Output, idle.Err)
		}
		var res cli.Result
		for _, line := range []string{"filter ipred catch Pipe_in=1", "break BhFilter_work_function",
			"filter pipe catch work", "batch"} {
			if res = st.CLI.Dispatch(line); res.Err != nil {
				t.Fatalf("%q: %v", line, res.Err)
			}
		}
		st.Shutdown()
		if !strings.Contains(res.Output, "per-token (breakpoint on BhFilter_work_function)") {
			t.Fatalf("armed, `batch` printed %q", res.Output)
		}
		outputs[res.Output]++
	}
	if len(outputs) != 1 {
		for out, n := range outputs {
			t.Logf("%d builds printed:\n%s", n, out)
		}
		t.Fatalf("20 builds of one recipe gave %d different `batch` outputs", len(outputs))
	}
}

// TestTraceViewsAreSorted stops a decode mid-run, when several links
// hold tokens, and checks that `trace balance` lists links by id and
// `trace activity` lists actors by name.
func TestTraceViewsAreSorted(t *testing.T) {
	r, err := recipe(h264.Params{W: 16, H: 16, QP: 8, Seed: 7}, "none", faultOpts{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Shutdown()
	for _, line := range []string{"filter ipf catch work", "continue", "continue"} {
		if res := st.CLI.Dispatch(line); res.Err != nil {
			t.Fatalf("%q: %v", line, res.Err)
		}
	}
	keys := func(cmd string, key func(line string) string) []string {
		res := st.CLI.Dispatch(cmd)
		if res.Err != nil {
			t.Fatalf("%q: %v", cmd, res.Err)
		}
		var out []string
		for _, line := range strings.Split(strings.TrimSpace(res.Output), "\n") {
			out = append(out, key(line))
		}
		return out
	}
	links := keys("trace balance", func(line string) string {
		var id int
		if _, err := fmt.Sscanf(line, "link#%d", &id); err != nil {
			t.Fatalf("trace balance line %q: %v", line, err)
		}
		return fmt.Sprintf("%08d", id)
	})
	actors := keys("trace activity", func(line string) string { return strings.Fields(line)[0] })
	for name, got := range map[string][]string{"trace balance": links, "trace activity": actors} {
		if len(got) < 2 {
			t.Fatalf("%s lists %d entries, want several", name, len(got))
		}
		if !slices.IsSorted(got) {
			t.Errorf("%s is not sorted: %v", name, got)
		}
	}
}
