package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dfdbg/internal/ckpt"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/stack"
)

func waitFor(t *testing.T, ch chan Event, kind string) Event {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case ev := <-ch:
			if ev.Event == kind {
				return ev
			}
		case <-deadline:
			t.Fatalf("no %q event", kind)
		}
	}
}

func mustExec(t *testing.T, s *Session, line string) {
	t.Helper()
	res, err := s.Exec(line)
	if err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	if res.Err != nil {
		t.Fatalf("%q: %v", line, res.Err)
	}
}

// finalState captures the session's deterministic state blob on its own
// goroutine.
func finalState(t *testing.T, s *Session) []byte {
	t.Helper()
	out, err := s.do(func(st *stack.Stack) any {
		b, err := st.CaptureState()
		if err != nil {
			t.Errorf("capture: %v", err)
			return []byte(nil)
		}
		return b
	})
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	return out.([]byte)
}

// TestCrashRecoveryByteIdentical is the acceptance path: a session
// killed by an injected panic mid-decode is auto-restored from its last
// checkpoint (replay-verified), the crash fault is disarmed, the
// interrupted continue re-executes, and the decode completes with state
// — frame, token traffic, scheduler — byte-identical to a session that
// never crashed.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	mgr := NewManager(4, 0)

	crash, err := mgr.Create(*tinyParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer crash.Close("test-done")
	sub := &chanSub{ch: make(chan Event, 64)}
	crash.Subscribe(sub)

	mustExec(t, crash, "fault add panic filter mb @ 2")
	mustExec(t, crash, "checkpoint armed")

	res, err := crash.Exec("continue")
	if err != nil {
		t.Fatalf("continue: %v", err)
	}
	if res.Stop == nil || res.Stop.Crash == nil {
		t.Fatalf("want a crash stop, got %+v", res.Stop)
	}
	if res.Stop.Crash.Actor != "mb" {
		t.Errorf("crash actor = %q, want mb", res.Stop.Crash.Actor)
	}

	rec := waitFor(t, sub.ch, "session-recovered")
	if rec.Checkpoint == nil || rec.Checkpoint.Label != "armed" {
		t.Errorf("recovered from %+v, want the 'armed' checkpoint", rec.Checkpoint)
	}
	done := waitFor(t, sub.ch, "stop")
	if done.Stop == nil || !done.Stop.Done {
		t.Fatalf("re-executed continue stopped at %+v, want completion", done.Stop)
	}
	if got := mgr.sessionsRecovered.Value(); got != 1 {
		t.Errorf("sessions_recovered_total = %d, want 1", got)
	}

	// The uninterrupted reference: same fault armed, manually disarmed,
	// same continue — but no crash and no restore ever happens.
	ref, err := mgr.Create(*tinyParams)
	if err != nil {
		t.Fatalf("create ref: %v", err)
	}
	defer ref.Close("test-done")
	mustExec(t, ref, "fault add panic filter mb @ 2")
	mustExec(t, ref, "checkpoint armed")
	mustExec(t, ref, "fault disarm panic filter mb @ 2")
	res, err = ref.Exec("continue")
	if err != nil {
		t.Fatalf("ref continue: %v", err)
	}
	if res.Stop == nil || !res.Stop.Done {
		t.Fatalf("ref stopped at %+v, want completion", res.Stop)
	}

	got := finalState(t, crash)
	want := finalState(t, ref)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered session diverged from the uninterrupted run: %v", ckpt.Diff(want, got))
	}
}

// TestCheckpointOpsOverWire drives checkpoint, checkpoints, restore and
// reverse execution through the wire protocol.
func TestCheckpointOpsOverWire(t *testing.T) {
	_, addr := startServer(t, Options{IdleTimeout: -1})
	w := dialWire(t, addr)
	w.waitEvent("hello")

	r := w.roundTrip(Request{Op: "new", Params: tinyParams})
	if !r.OK {
		t.Fatalf("new: %+v", r)
	}
	sid := r.Session

	r = w.roundTrip(Request{Op: "checkpoint", Session: sid, Label: "start"})
	if !r.OK {
		t.Fatalf("checkpoint: %+v", r)
	}

	r = w.roundTrip(Request{Op: "checkpoints", Session: sid})
	if !r.OK || len(r.Checkpoints) < 2 {
		t.Fatalf("checkpoints: ok=%v n=%d (want boot + start)", r.OK, len(r.Checkpoints))
	}
	if r.Checkpoints[0].Label != "boot" {
		t.Errorf("first checkpoint %+v, want the boot checkpoint", r.Checkpoints[0])
	}

	r = w.roundTrip(Request{Op: "exec", Session: sid, Line: "continue"})
	if !r.OK || r.Stop == nil || !r.Stop.Done {
		t.Fatalf("continue: %+v", r)
	}

	// reverse-step undoes the continue; the session announces the swap.
	r = w.roundTrip(Request{Op: "exec", Session: sid, Line: "reverse-step"})
	if !r.OK {
		t.Fatalf("reverse-step: %+v", r)
	}
	w.waitEvent("restored")

	// restore (latest) via the dedicated op.
	r = w.roundTrip(Request{Op: "restore", Session: sid})
	if !r.OK {
		t.Fatalf("restore: %+v", r)
	}
	w.waitEvent("restored")

	// The swapped-in world serves commands: re-run to completion.
	r = w.roundTrip(Request{Op: "exec", Session: sid, Line: "continue"})
	if !r.OK || r.Stop == nil || !r.Stop.Done {
		t.Fatalf("continue after restore: %+v", r)
	}
}

// TestSessionStateDigest pins the captured state of a served world
// after boot and after two fixed scripts, one stopping at catchpoints
// and one running batched: a change to how sessions are assembled would
// break restoring the checkpoints other builds wrote.
func TestSessionStateDigest(t *testing.T) {
	m := NewManager(2, 0)
	defer m.CloseAll()
	got := ""
	for _, script := range [][]string{
		nil,
		{"filter pipe catch work", "continue", "continue"},
		{"continue"}, // nothing armed: runs batched
	} {
		s, err := m.Create(*tinyParams)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range script {
			if _, err := s.Exec(line); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		}
		_, c, err := s.Export()
		cp, derr := ckpt.Decode(c)
		if err != nil || derr != nil {
			t.Fatal(err, derr)
		}
		got += fmt.Sprintf("%x\n", sha256.Sum256(cp.State))
	}
	want, err := os.ReadFile("testdata/state_digest.txt")
	if err != nil || got != string(want) {
		t.Errorf("session state digest changed:\n got %s\nwant %s%v", got, want, err)
	}
}

// TestServedBatchReport: a served session runs batched under the rule
// every world follows. With nothing armed `batch` prints every region
// batched; a catchpoint demotes them all, and `batch` names it.
func TestServedBatchReport(t *testing.T) {
	mgr := NewManager(1, 0)
	defer mgr.CloseAll()
	s, err := mgr.Create(*tinyParams)
	if err != nil {
		t.Fatal(err)
	}
	regions := func() []string {
		t.Helper()
		res, err := s.Exec("batch")
		if err != nil || res.Err != nil {
			t.Fatalf("batch: %v %v", err, res.Err)
		}
		var modes []string
		for _, line := range strings.Split(res.Output, "\n") {
			if strings.HasPrefix(line, "region ") {
				_, mode, _ := strings.Cut(line, "]: ")
				modes = append(modes, mode)
			} else if line != "" && !strings.HasPrefix(line, "  schedule: ") {
				t.Errorf("unexpected `batch` line %q", line)
			}
		}
		if len(modes) == 0 {
			t.Fatalf("`batch` reported no region:\n%s", res.Output)
		}
		return modes
	}
	for _, m := range regions() {
		if m != "batched" {
			t.Errorf("nothing armed: region %q, want batched", m)
		}
	}
	mustExec(t, s, "filter pipe catch work")
	want := "per-token (breakpoint on " + dbginfo.MangleFilterWork("pipe") + ")"
	for _, m := range regions() {
		if m != want {
			t.Errorf("catch armed: region %q, want %q", m, want)
		}
	}
}

// TestServedSessionCannotReachFiles pins that a client's command line
// reaches none of the server's files: `timeline export PATH` creates
// nothing, `fault load PATH` echoes none of the file's content, neither
// line is journaled (so no migration or revival replays a file read),
// and `timeline export -` still returns the trace in the reply.
func TestServedSessionCannotReachFiles(t *testing.T) {
	mgr := NewManager(1, 0)
	s, err := mgr.Create(*tinyParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer s.Close("test-done")
	dir := t.TempDir()
	export := filepath.Join(dir, "timeline.json")
	secret := filepath.Join(dir, "secret")
	if err := os.WriteFile(secret, []byte("hunter2 is the word\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"timeline export " + export, "fault load " + secret} {
		res, err := s.Exec(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if res.Err == nil || !strings.Contains(res.Err.Error(), "no access to the host's files") {
			t.Errorf("%q in a served session: err = %v, want a refusal", line, res.Err)
		}
		if strings.Contains(res.Output+fmt.Sprint(res.Err), "hunter2") {
			t.Errorf("%q echoed the file's content: %q, %v", line, res.Output, res.Err)
		}
	}
	if _, err := os.Stat(export); !os.IsNotExist(err) {
		t.Errorf("timeline export created %s on the server: %v", export, err)
	}
	n, err := s.do(func(*stack.Stack) any { return s.sup.sess.Manager().JournalLen() })
	if err != nil || n != 0 {
		t.Errorf("journal after two refused lines: %v entries, %v", n, err)
	}
	res, err := s.Exec("timeline export -")
	if err != nil || res.Err != nil || !strings.Contains(res.Output, `"traceEvents"`) {
		t.Errorf("timeline export -: %v %v\n%.200s", err, res.Err, res.Output)
	}
}
