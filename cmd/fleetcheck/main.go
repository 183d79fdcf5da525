// Command fleetcheck is the fleet CI smoke driver: it runs many
// concurrent scripted debug sessions through a dfrouter, drains one
// worker mid-run so a slice of the sessions live-migrate, and then
// verifies the fleet's correctness contract end to end:
//
//   - every session's trace is byte-identical to a solo in-process run
//     of the same script (migration is observable only as an event,
//     never as divergent output),
//   - every command got its response (no drops, no hangs),
//   - every session the drain moved announced exactly one
//     "session-migrated" event and no "session-closed".
//
// It exits 0 on success and 1 with a diagnostic on any violation, so a
// CI job can gate on it directly:
//
//	fleetcheck -router 127.0.0.1:7700 -drain w1 [-sessions 16]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dfdbg/internal/serve"
)

// script is the deterministic per-session command list: every command's
// output is a pure function of the session params, so traces compare
// byte-for-byte across workers and across migrations.
var script = []string{
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

var params = &serve.SessionParams{W: 16, H: 16, QP: 8, Seed: 7}

func main() {
	var (
		router   = flag.String("router", "127.0.0.1:7700", "dfrouter client address")
		sessions = flag.Int("sessions", 16, "concurrent scripted sessions")
		drain    = flag.String("drain", "w1", "worker to drain mid-run (empty = no drain)")
		timeout  = flag.Duration("timeout", 5*time.Minute, "overall deadline")
	)
	flag.Parse()
	ok := make(chan bool, 1)
	go func() { ok <- check(*router, *sessions, *drain) }()
	select {
	case passed := <-ok:
		if !passed {
			os.Exit(1)
		}
		fmt.Println("fleetcheck: PASS")
	case <-time.After(*timeout):
		fmt.Fprintln(os.Stderr, "fleetcheck: FAIL: deadline exceeded (dropped response?)")
		os.Exit(1)
	}
}

func check(addr string, nSessions int, drainWorker string) bool {
	golden, err := goldenTrace()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetcheck: golden run: %v\n", err)
		return false
	}

	admin, err := dial(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetcheck: %v\n", err)
		return false
	}
	defer admin.Close(nil)

	totalCmds := int64(nSessions * len(script))
	var cmdCount atomic.Int64
	var drainOnce sync.Once
	var drainResp serve.Response
	var drainErr error
	fireDrain := func() {
		drainOnce.Do(func() {
			drainResp, drainErr = admin.RoundTrip(serve.Request{Op: "drain", Worker: drainWorker}, 0)
		})
	}

	var wg sync.WaitGroup
	failed := atomic.Bool{}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fleetcheck: FAIL: "+format+"\n", args...)
		failed.Store(true)
	}
	sids := make([]string, nSessions)
	conns := make([]*conn, nSessions)
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := dial(addr)
			if err != nil {
				fail("session %d: %v", i, err)
				return
			}
			conns[i] = cl
			r, err := cl.RoundTrip(serve.Request{Op: "new", Params: params}, 0)
			if err == nil && !r.OK {
				err = errors.New(r.Error)
			}
			if err != nil {
				fail("session %d: new: %v", i, err)
				return
			}
			sids[i] = r.Session
			var b strings.Builder
			for _, line := range script {
				r, err := cl.RoundTrip(serve.Request{Op: "exec", Session: sids[i], Line: line}, 0)
				if err != nil {
					fail("%q: %v", line, err)
					return
				}
				render(&b, line, r)
				// Drain mid-run, from whichever session crosses the
				// halfway line of the fleet-wide command volume.
				if drainWorker != "" && cmdCount.Add(1) == totalCmds/2 {
					go fireDrain()
				}
			}
			if got := b.String(); got != golden {
				fail("session %s trace diverged:\n%s", sids[i], firstDiff(golden, got))
			}
		}(i)
	}
	wg.Wait()
	if drainWorker != "" {
		fireDrain() // tiny fleets can finish before the halfway trigger
		if drainErr == nil && !drainResp.OK {
			drainErr = errors.New(drainResp.Error)
		}
		if drainErr != nil {
			fail("drain %s: %v", drainWorker, drainErr)
		}
	}

	// Event accounting: each session the drain moved must have produced
	// exactly one session-migrated and no session-closed on its creator
	// connection.
	moved := map[string]bool{}
	for _, si := range drainResp.Sessions {
		moved[si.ID] = true
	}
	nMigrated := 0
	for i, cl := range conns {
		if cl == nil {
			continue
		}
		// The session's events travel on its own connection, so its
		// session-migrated can trail the drain's response on the admin
		// connection.
		migrated, closed := cl.eventCounts(sids[i])
		for wait := time.Now().Add(10 * time.Second); moved[sids[i]] && migrated == 0 && time.Now().Before(wait); {
			time.Sleep(10 * time.Millisecond)
			migrated, closed = cl.eventCounts(sids[i])
		}
		if moved[sids[i]] && migrated != 1 {
			fail("session %s: %d session-migrated events, want 1", sids[i], migrated)
		}
		if !moved[sids[i]] && migrated != 0 {
			fail("session %s: unexpected session-migrated", sids[i])
		}
		if closed != 0 {
			fail("session %s: saw session-closed", sids[i])
		}
		nMigrated += migrated
		cl.Close(nil)
	}
	if drainWorker != "" && len(drainResp.Sessions) == 0 {
		fail("drain of %s moved no sessions (fleet too small or worker empty?)", drainWorker)
	}
	if failed.Load() {
		return false
	}
	fmt.Printf("fleetcheck: %d sessions, %d commands, %d migrated off %s, traces byte-identical\n",
		nSessions, cmdCount.Load(), nMigrated, drainWorker)
	return true
}

// goldenTrace runs the script against an in-process single-session
// manager: no server, no router, no migration.
func goldenTrace() (string, error) {
	mgr := serve.NewManager(1, 0)
	defer mgr.CloseAll()
	s, err := mgr.Create(*params)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, line := range script {
		res, err := s.Exec(line)
		if err != nil {
			return "", fmt.Errorf("%q: %w", line, err)
		}
		r := serve.Response{Output: res.Output, Stop: res.Stop}
		if res.Err != nil {
			r.Error = res.Err.Error()
		}
		render(&b, line, r)
	}
	return b.String(), nil
}

// render appends one exec response to a trace in canonical form.
func render(b *strings.Builder, line string, r serve.Response) {
	fmt.Fprintf(b, ">>> %s\n%s", line, r.Output)
	if r.Error != "" {
		fmt.Fprintf(b, "error: %v\n", r.Error)
	}
	if r.Stop != nil {
		fmt.Fprintf(b, "[stop %s @%d]\n", r.Stop.Reason, r.Stop.TimeNS)
	}
}

func firstDiff(golden, got string) string {
	gl, ol := strings.Split(golden, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(gl) && i < len(ol); i++ {
		if gl[i] != ol[i] {
			return fmt.Sprintf("line %d:\n  golden: %q\n  fleet:  %q", i+1, gl[i], ol[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(gl), len(ol))
}

// conn is one router connection: the shared wire client, with the
// session-migrated and session-closed events it saw counted per session.
type conn struct {
	*serve.Client

	mu               sync.Mutex
	migrated, closed map[string]int
}

func dial(addr string) (*conn, error) {
	c := &conn{migrated: map[string]int{}, closed: map[string]int{}}
	cl, err := serve.Dial(addr, 10*time.Second, func(_ *serve.Client, ev serve.Event) {
		c.mu.Lock()
		defer c.mu.Unlock()
		switch ev.Event {
		case "session-migrated":
			c.migrated[ev.Session]++
		case "session-closed":
			c.closed[ev.Session]++
		}
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c.Client = cl
	return c, nil
}

// eventCounts reports the migration-relevant events seen for a session.
func (c *conn) eventCounts(sid string) (migrated, closed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.migrated[sid], c.closed[sid]
}
