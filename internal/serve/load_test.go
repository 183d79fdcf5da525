package serve

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// loadScript drives one h264 debug session end to end. Every command is
// deterministic for fixed params: simulation state, trace dumps and
// static analysis depend only on the kernel's virtual time. Commands
// whose output folds in process-global state (`metrics` picks up the
// shared filterc code-cache counters) or iterates Go maps (`trace
// balance`, `trace activity`, `profile`) are deliberately absent.
var loadScript = []string{
	"info filters",
	"filter pipe catch work",
	"continue",
	"filter pipe info last_token",
	"catchpoints",
	"delete catch 1",
	"continue",
	"info filters",
	"info links",
	"trace 30",
	"graph",
	"fault status",
	"analyze",
}

// runScript executes the load script against a session and renders one
// canonical trace: command, output and error rendered exactly the same
// way for every run.
func runScript(s *Session) (string, error) {
	var b strings.Builder
	for _, line := range loadScript {
		res, err := s.Exec(line)
		if err != nil {
			return "", fmt.Errorf("%s: %w", line, err)
		}
		fmt.Fprintf(&b, ">>> %s\n%s", line, res.Output)
		if res.Err != nil {
			fmt.Fprintf(&b, "error: %v\n", res.Err)
		}
		if res.Stop != nil {
			fmt.Fprintf(&b, "[stop %s @%d]\n", res.Stop.Reason, res.Stop.TimeNS)
		}
	}
	return b.String(), nil
}

// TestLoadConcurrentSessionsDeterministic is the dfserve load test: N
// concurrent scripted sessions of the h264 decoder run to completion
// through the wire-facing session layer, and every per-session trace
// must be byte-identical to a solo run of the same script. Run with
// -race in CI; sessions share nothing but the interned filter programs,
// the classification and analysis memos, the shared bitstreams and the
// manager's atomic counters.
func TestLoadConcurrentSessionsDeterministic(t *testing.T) {
	const nSessions = 8
	params := SessionParams{W: 16, H: 16, QP: 8, Seed: 7}

	// Solo run: the golden trace.
	solo := NewManager(1, 0)
	s, err := solo.Create(params)
	if err != nil {
		t.Fatalf("solo create: %v", err)
	}
	golden, err := runScript(s)
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	s.Close("done")
	if !strings.Contains(golden, ">>> analyze") || len(golden) < 200 {
		t.Fatalf("suspiciously small golden trace:\n%s", golden)
	}

	// Concurrent runs against one manager.
	mgr := NewManager(nSessions, 0)
	defer mgr.CloseAll()
	traces := make([]string, nSessions)
	errs := make([]error, nSessions)
	var wg sync.WaitGroup
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := mgr.Create(params)
			if err != nil {
				errs[i] = err
				return
			}
			traces[i], errs[i] = runScript(s)
			s.Close("done")
		}(i)
	}
	wg.Wait()

	for i := 0; i < nSessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if traces[i] != golden {
			t.Errorf("session %d trace diverged from solo run:\n%s",
				i, firstDiff(golden, traces[i]))
		}
	}
	if got := mgr.commandsTotal.Value(); got != uint64(nSessions*len(loadScript)) {
		t.Errorf("commands_total = %d, want %d", got, nSessions*len(loadScript))
	}
}

// TestLoadOverWire runs the same scripted session through real TCP
// connections, one client per session, and checks the responses stream
// back consistently.
func TestLoadOverWire(t *testing.T) {
	const nClients = 8
	_, addr := startServer(t, Options{MaxSessions: nClients, IdleTimeout: -1})

	traces := make([]string, nClients)
	var wg sync.WaitGroup
	errc := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := dialWire(t, addr)
			r := w.roundTrip(Request{Op: "new", Params: &SessionParams{W: 16, H: 16, QP: 8, Seed: 7}})
			if !r.OK {
				errc <- fmt.Errorf("client %d new: %s", i, r.Error)
				return
			}
			sid := r.Session
			var b strings.Builder
			for _, line := range loadScript {
				r := w.roundTrip(Request{Op: "exec", Session: sid, Line: line})
				fmt.Fprintf(&b, ">>> %s\n%s", line, r.Output)
				if r.Error != "" {
					fmt.Fprintf(&b, "error: %v\n", r.Error)
				}
				if r.Stop != nil {
					fmt.Fprintf(&b, "[stop %s @%d]\n", r.Stop.Reason, r.Stop.TimeNS)
				}
			}
			if r := w.roundTrip(Request{Op: "exec", Session: sid, Line: "quit"}); !r.Done {
				errc <- fmt.Errorf("client %d quit: %+v", i, r)
				return
			}
			traces[i] = b.String()
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for i := 1; i < nClients; i++ {
		if traces[i] != traces[0] {
			t.Errorf("client %d trace diverged:\n%s", i, firstDiff(traces[0], traces[i]))
		}
	}
}

// firstDiff renders the first differing line of two traces.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  solo: %q\n  sess: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(al), len(bl))
}
