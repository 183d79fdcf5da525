package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"dfdbg/internal/ckpt/wire"
	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/obs"
	"dfdbg/internal/serve"
	"dfdbg/internal/stack"
)

// buildREPL builds the REPL world for p with the given batch mode.
func buildREPL(t *testing.T, p h264.Params, batch stack.Batch) *stack.Stack {
	t.Helper()
	r, err := recipe(p, "none", faultOpts{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	r.Batch = batch
	st, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Shutdown)
	return st
}

// regionsMode returns the common mode of every planned region: "batched"
// or the demotion reason. Regions never disagree, since anything that
// demotes one demotes all.
func regionsMode(t *testing.T, st *stack.Stack) string {
	t.Helper()
	modes := st.RT.RegionModes()
	if len(modes) == 0 {
		t.Fatal("no planned region")
	}
	mode := func(m int) string {
		if modes[m].Batched {
			return "batched"
		}
		return modes[m].Reason
	}
	for i := range modes {
		if mode(i) != mode(0) {
			t.Fatalf("regions disagree: %+v", modes)
		}
	}
	return mode(0)
}

// catchKinds arms one catchpoint of every kind on the H.264 world.
var catchKinds = []struct {
	name string
	arm  func(*core.Debugger) (*core.Catchpoint, error)
}{
	{"work", func(d *core.Debugger) (*core.Catchpoint, error) { return d.CatchWorkOf("pipe") }},
	{"receive", func(d *core.Debugger) (*core.Catchpoint, error) {
		return d.CatchTokensOf("ipred", map[string]uint64{"Pipe_in": 1})
	}},
	{"send", func(d *core.Debugger) (*core.Catchpoint, error) {
		return d.CatchTokensOf("pipe", map[string]uint64{"*out": 1})
	}},
	{"content", func(d *core.Debugger) (*core.Catchpoint, error) {
		return d.CatchContentOf("ipred::Pipe_in", "any", func(filterc.Value) bool { return true })
	}},
	{"step-begin", func(d *core.Debugger) (*core.Catchpoint, error) { return d.CatchStepOf("pred", false) }},
	{"step-end", func(d *core.Debugger) (*core.Catchpoint, error) { return d.CatchStepOf("pred", true) }},
	{"scheduled", func(d *core.Debugger) (*core.Catchpoint, error) { return d.CatchScheduledOf("ipred") }},
	{"condition", func(d *core.Debugger) (*core.Catchpoint, error) {
		return d.CatchWhen("40 data events", func(d *core.Debugger) bool { return d.DataEvents >= 40 }), nil
	}},
}

// TestCatchpointsDemote arms each kind of dataflow catchpoint on the
// REPL world: every region turns per-token and `batch` names the
// catchpoint (a `catch work` is a breakpoint on the WORK symbol, so its
// reason names that), and disabling or deleting it promotes the regions
// again. Each flip records one KBatchMode event per region, and only
// flips do.
func TestCatchpointsDemote(t *testing.T) {
	st := buildREPL(t, h264.Params{W: 16, H: 16, QP: 8, Seed: 7}, stack.BatchOn)
	if got := regionsMode(t, st); got != "batched" {
		t.Fatalf("nothing armed, regions %q", got)
	}
	st.Rec.EnableKinds(obs.Mask(1) << obs.KBatchMode)
	for _, k := range catchKinds {
		c, err := k.arm(st.D)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		want := fmt.Sprintf("catchpoint %d", c.ID)
		if k.name == "work" {
			want = "breakpoint on " + dbginfo.MangleFilterWork("pipe")
		}
		if got := regionsMode(t, st); got != want {
			t.Errorf("%s armed: regions %q, want %q", k.name, got, want)
		}
		if out := st.CLI.Dispatch("batch").Output; !strings.Contains(out, "per-token ("+want+")") {
			t.Errorf("%s armed: `batch` printed\n%s", k.name, out)
		}
		steps := []struct {
			do   func() error
			want string
		}{
			{func() error { return st.D.SetCatchEnabled(c.ID, false) }, "batched"},
			{func() error { return st.D.SetCatchEnabled(c.ID, true) }, want},
			{func() error { return st.D.DeleteCatch(c.ID) }, "batched"},
		}
		for i, s := range steps {
			if err := s.do(); err != nil {
				t.Fatal(err)
			}
			if got := regionsMode(t, st); got != s.want {
				t.Errorf("%s step %d: regions %q, want %q", k.name, i, got, s.want)
			}
		}
	}
	var flips []string
	for _, ev := range st.Rec.Snapshot() {
		if ev.Kind == obs.KBatchMode {
			flips = append(flips, fmt.Sprintf("%d:%s", ev.Arg2, ev.Other))
		}
	}
	if want := 4 * len(catchKinds) * len(st.RT.RegionModes()); len(flips) != want {
		t.Errorf("%d KBatchMode events, want %d: %v", len(flips), want, flips)
	}
}

// TestCatchStopStateMatchesPerToken stops the batched and the per-token
// REPL worlds at the same catchpoint hits and requires byte-identical
// captured state: the catchpoint demoted every region before the run,
// so no actor ran ahead of the clock.
func TestCatchStopStateMatchesPerToken(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	for _, name := range []string{"receive", "condition"} {
		var arm func(*core.Debugger) (*core.Catchpoint, error)
		for _, k := range catchKinds {
			if k.name == name {
				arm = k.arm
			}
		}
		states := func(batch stack.Batch) [][]byte {
			st := buildREPL(t, p, batch)
			if _, err := arm(st.D); err != nil {
				t.Fatal(err)
			}
			var out [][]byte
			for hit := 1; hit <= 3; hit++ {
				if res := st.CLI.Dispatch("continue"); res.Err != nil {
					t.Fatal(res.Err)
				}
				if ev := st.Low.LastStop(); ev.Kind != lowdbg.StopAction {
					t.Fatalf("%s hit %d: expected a catchpoint stop, got %v", name, hit, ev)
				}
				b, err := st.CaptureState()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, b)
			}
			return out
		}
		ref, bat := states(stack.BatchOff), states(stack.BatchOn)
		for i := range ref {
			if !bytes.Equal(ref[i], bat[i]) {
				t.Errorf("catch %s, hit %d: batched state differs from per-token", name, i+1)
			}
		}
	}
}

// stateChunks splits a captured state blob into its named chunks.
func stateChunks(t *testing.T, b []byte) map[string][]byte {
	t.Helper()
	r := wire.NewReader(b)
	out := map[string][]byte{}
	for r.Rest() > 0 {
		name := r.Str()
		out[name] = r.Bytes()
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return out
}

// simFields decodes the scalar head of a sim chunk, in the order
// sim.Kernel.EncodeState writes it, and returns the rest (process
// table, runnable queue, timed notes) undecoded.
func simFields(t *testing.T, b []byte) ([]string, map[string]string, []byte) {
	t.Helper()
	r := wire.NewReader(b)
	names := []string{"now", "paused", "err", "dispatches", "advances", "event_fires",
		"delta_wakes", "watch_limit", "progress_at", "watchdog_stalls"}
	vals := map[string]string{}
	for _, n := range names {
		switch n {
		case "paused":
			vals[n] = fmt.Sprint(r.Bool())
		case "err":
			vals[n] = r.Str()
		default:
			vals[n] = fmt.Sprint(r.U64())
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return names, vals, b[r.Offset():]
}

// TestAttachedBatchDifferential decodes an 8-frame sequence to
// completion on the REPL world (core attached, nothing armed) with and
// without the batched engine. Decoded frames, the recorded events, their
// Chrome export and the mach, pedf and obs state must be byte-identical;
// of the kernel state only the dispatch and clock-advance counters may
// differ, and the batched world must dispatch less.
func TestAttachedBatchDifferential(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7, Frames: 8}
	type result struct {
		frames, chrome string
		events         []obs.Event
		chunks         map[string][]byte
	}
	decode := func(batch stack.Batch) result {
		st := buildREPL(t, p, batch)
		if res := st.CLI.Dispatch("continue"); res.Err != nil {
			t.Fatal(res.Err)
		}
		if ev := st.Low.LastStop(); ev.Kind != lowdbg.StopDone || ev.Deadlock != nil {
			t.Fatalf("decode ended with %v", ev)
		}
		if batch == stack.BatchOn && regionsMode(t, st) != "batched" {
			t.Fatalf("regions not batched: %+v", st.RT.RegionModes())
		}
		seq, err := st.App.OutputSequence()
		if err != nil {
			t.Fatal(err)
		}
		var chrome strings.Builder
		if err := obs.WriteChromeTrace(&chrome, st.Rec.Snapshot(), uint64(st.K.Now()), nil); err != nil {
			t.Fatal(err)
		}
		state, err := st.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		evs := st.Rec.Snapshot()
		for i := range evs {
			if evs[i].Kind == obs.KBpHit {
				evs[i].Arg = 0 // host nanoseconds, as the obs chunk also drops them
			}
		}
		return result{fmt.Sprint(seq), chrome.String(), evs, stateChunks(t, state)}
	}
	ref, bat := decode(stack.BatchOff), decode(stack.BatchOn)

	if ref.frames != bat.frames {
		t.Error("decoded frames differ")
	}
	if len(ref.events) == 0 || fmt.Sprint(ref.events) != fmt.Sprint(bat.events) {
		t.Errorf("recorded events differ (or none): %d per-token, %d batched", len(ref.events), len(bat.events))
	}
	if ref.chrome != bat.chrome {
		t.Error("Chrome exports differ")
	}
	for _, c := range []string{"mach", "pedf", "obs"} {
		if len(ref.chunks[c]) == 0 {
			t.Errorf("%s chunk is missing", c)
		}
	}
	rd, bd := sameButSimCounters(t, "decoded", ref.chunks, bat.chunks)
	if bd >= rd {
		t.Errorf("batched world dispatched %d times, per-token %d: batching did not engage", bd, rd)
	}
	t.Logf("dispatches %d -> %d", rd, bd)
}

// sameButSimCounters requires two captured states, split into chunks,
// to be byte-identical except for the sim dispatch and clock-advance
// counters, and returns the per-token (ref) and batched dispatches.
func sameButSimCounters(t *testing.T, at string, ref, bat map[string][]byte) (rd, bd uint64) {
	t.Helper()
	for c := range ref {
		if _, ok := bat[c]; !ok {
			t.Errorf("%s: batched state lacks the %s chunk", at, c)
		}
	}
	for c := range bat {
		if c != "sim" && !bytes.Equal(ref[c], bat[c]) {
			t.Errorf("%s: %s chunk differs", at, c)
		}
	}
	names, rv, rtail := simFields(t, ref["sim"])
	_, bv, btail := simFields(t, bat["sim"])
	for _, n := range names {
		if n != "dispatches" && n != "advances" && rv[n] != bv[n] {
			t.Errorf("%s: sim %s differs: per-token %s, batched %s", at, n, rv[n], bv[n])
		}
	}
	if !bytes.Equal(rtail, btail) {
		t.Errorf("%s: sim process table, runnable queue or timed notes differ", at)
	}
	fmt.Sscan(rv["dispatches"], &rd)
	fmt.Sscan(bv["dispatches"], &bd)
	return rd, bd
}

// TestServedBatchDifferential drives a session on the world a dfserve
// session boots (serve's recipe) with and without the batched engine:
// a walk over catchpoint stops, `delete catch 1` and a continue to the
// end of the decode with nothing armed, a reverse-step over that
// continue, and the link balance. The transcripts must be byte-identical,
// and so must the state captured after every line, except for the sim
// dispatch and advance counters. The continue with nothing armed is the
// one line that runs batched, so only it may dispatch less.
func TestServedBatchDifferential(t *testing.T) {
	served, err := serve.SessionParams{W: 16, H: 16, QP: 8, Seed: 7}.Recipe()
	if err != nil {
		t.Fatal(err)
	}
	script := []string{
		"filter pipe catch work", "continue", "continue", "catchpoints",
		"delete catch 1", "continue", "reverse-step", "trace balance",
	}
	const batchedLine = 5 // the continue after `delete catch 1`
	run := func(batch stack.Batch) (string, []map[string][]byte) {
		r := served
		r.Batch = batch
		sess := stack.NewSession(r)
		if err := sess.Boot(nil); err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		var transcript strings.Builder
		var states []map[string][]byte
		for i, line := range script {
			if i == batchedLine && batch == stack.BatchOn && regionsMode(t, sess.Live()) != "batched" {
				t.Fatalf("nothing armed before %q, regions %+v", line, sess.Live().RT.RegionModes())
			}
			res := sess.Exec(line)
			if res.Err != nil {
				t.Fatalf("%q: %v", line, res.Err)
			}
			sess.Adopt(nil)
			fmt.Fprintf(&transcript, "(gdb) %s\n%s", line, res.Output)
			b, err := sess.Live().CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, stateChunks(t, b))
		}
		return transcript.String(), states
	}
	refOut, ref := run(stack.BatchOff)
	batOut, bat := run(stack.BatchOn)
	if refOut != batOut {
		t.Errorf("transcripts differ:\nper-token:\n%s\nbatched:\n%s", refOut, batOut)
	}
	for i, line := range script {
		rd, bd := sameButSimCounters(t, fmt.Sprintf("after %q (line %d)", line, i+1), ref[i], bat[i])
		switch {
		case i == batchedLine && bd >= rd:
			t.Errorf("%q dispatched %d times batched, %d per-token: batching did not engage", line, bd, rd)
		case i != batchedLine && bd != rd:
			t.Errorf("after %q (line %d): %d dispatches batched, %d per-token", line, i+1, bd, rd)
		}
	}
}
