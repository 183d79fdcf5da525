package router

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dfdbg/internal/serve"
)

// fleetScript mirrors serve's load script: every command deterministic
// for fixed params, so per-session traces are comparable byte-for-byte
// across workers and across migrations.
var fleetScript = []string{
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

// renderResp appends one exec response to a trace in canonical form.
func renderResp(b *strings.Builder, line string, r serve.Response) {
	fmt.Fprintf(b, ">>> %s\n%s", line, r.Output)
	if r.Error != "" {
		fmt.Fprintf(b, "error: %v\n", r.Error)
	}
	if r.Stop != nil {
		fmt.Fprintf(b, "[stop %s @%d]\n", r.Stop.Reason, r.Stop.TimeNS)
	}
}

// goldenTrace runs fleetScript against a standalone worker (no router,
// no migration) and returns the canonical trace.
func goldenTrace(t *testing.T, params *serve.SessionParams) string {
	t.Helper()
	mgr := serve.NewManager(1, 0)
	defer mgr.CloseAll()
	s, err := mgr.Create(*params)
	if err != nil {
		t.Fatalf("golden create: %v", err)
	}
	var b strings.Builder
	for _, line := range fleetScript {
		res, err := s.Exec(line)
		if err != nil {
			t.Fatalf("golden %q: %v", line, err)
		}
		r := serve.Response{Output: res.Output, Stop: res.Stop}
		if res.Err != nil {
			r.Error = res.Err.Error()
		}
		renderResp(&b, line, r)
	}
	return b.String()
}

// TestDrainMigratesSessions is the migration acceptance path through
// the wire: sessions run half their script on the original placement,
// the admin drain op live-migrates a worker's sessions to its peers,
// and the scripts finish with traces byte-identical to an unmigrated
// run — the attached client saw one session-migrated event and lost no
// responses.
func TestDrainMigratesSessions(t *testing.T) {
	const nSessions = 4
	golden := goldenTrace(t, tinyParams)

	f := startFleet(t, 3, serve.Options{})
	clients := make([]*wire, nSessions)
	sids := make([]string, nSessions)
	traces := make([]strings.Builder, nSessions)
	for i := range clients {
		clients[i] = dialWire(t, f.addr)
		r := clients[i].roundTrip(serve.Request{Op: "new", Params: tinyParams})
		if !r.OK {
			t.Fatalf("new %d: %s", i, r.Error)
		}
		sids[i] = r.Session
	}
	const cut = 5
	for i, cl := range clients {
		for _, line := range fleetScript[:cut] {
			r := cl.roundTrip(serve.Request{Op: "exec", Session: sids[i], Line: line})
			renderResp(&traces[i], line, r)
		}
	}

	// Drain the worker owning session 0.
	rt, ok := f.r.getRoute(sids[0])
	if !ok {
		t.Fatal("no route for session 0")
	}
	rt.mu.RLock()
	victim := rt.w.nameOf()
	rt.mu.RUnlock()
	admin := dialWire(t, f.addr)
	dr := admin.roundTrip(serve.Request{Op: "drain", Worker: victim})
	if !dr.OK {
		t.Fatalf("drain: %s", dr.Error)
	}
	moved := map[string]bool{}
	for _, si := range dr.Sessions {
		moved[si.ID] = true
	}
	if !moved[sids[0]] {
		t.Fatalf("drain of %s did not move session 0 (%s): moved %v", victim, sids[0], dr.Sessions)
	}

	// Finish every script; traces must match the golden run exactly.
	for i, cl := range clients {
		for _, line := range fleetScript[cut:] {
			r := cl.roundTrip(serve.Request{Op: "exec", Session: sids[i], Line: line})
			renderResp(&traces[i], line, r)
		}
		if got := traces[i].String(); got != golden {
			t.Errorf("session %d (%s) trace diverged after drain:\n%s",
				i, sids[i], diffLine(golden, got))
		}
	}

	// Each migrated session's creator saw exactly one session-migrated
	// event naming the move, and never a session-closed.
	for i, cl := range clients {
		if !moved[sids[i]] {
			continue
		}
		ev := cl.waitEvent("session-migrated")
		if ev.Session != sids[i] || !strings.HasPrefix(ev.Reason, victim+" -> ") {
			t.Errorf("session-migrated: %+v", ev)
		}
	drain:
		for {
			select {
			case ev := <-cl.events:
				if ev.Event == "session-closed" || ev.Event == "session-migrated" {
					t.Errorf("unexpected %s for %s: %+v", ev.Event, sids[i], ev)
				}
			default:
				break drain
			}
		}
	}

	// The drained worker is empty and out of the placement pool.
	fl := admin.roundTrip(serve.Request{Op: "fleet"})
	for _, wi := range fl.Workers {
		if wi.Name == victim {
			if wi.Sessions != 0 || !wi.Draining {
				t.Errorf("drained worker row: %+v", wi)
			}
		}
	}
	if got := f.r.migrations.Value(); got != uint64(len(dr.Sessions)) {
		t.Errorf("migrations_total = %d, want %d", got, len(dr.Sessions))
	}
	if f.r.migrationBytes.Value() == 0 {
		t.Error("migration_bytes_total = 0 after migrations")
	}
}

func diffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  golden: %q\n  fleet:  %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(al), len(bl))
}

// TestMigrationRetriesPastDeadPeer: the rendezvous-best destination is
// dead (but not yet detected by health checks) when the drain starts;
// the router must re-route the exported container — the session's last
// good checkpoint — to the next-ranked peer instead of losing it.
func TestMigrationRetriesPastDeadPeer(t *testing.T) {
	// Slow the health loop way down so the dead peer stays "healthy" in
	// the placement pool for the duration of the drain.
	f := startFleetPinging(t, 3, serve.Options{}, time.Hour)

	w := dialWire(t, f.addr)
	r := w.roundTrip(serve.Request{Op: "new", Params: tinyParams})
	if !r.OK {
		t.Fatalf("new: %s", r.Error)
	}
	sid := r.Session
	if r := w.roundTrip(serve.Request{Op: "exec", Session: sid, Line: "continue"}); !r.OK {
		t.Fatalf("exec: %s", r.Error)
	}

	rt, _ := f.r.getRoute(sid)
	rt.mu.RLock()
	src := rt.w
	rt.mu.RUnlock()
	peers := f.r.ranked(sid, src)
	if len(peers) != 2 {
		t.Fatalf("want 2 peers, got %d", len(peers))
	}
	best, fallback := peers[0], peers[1]
	for i, srv := range f.workers {
		if f.waddrs[i] == best.addr {
			srv.Close() // dies "mid-transfer": after export ranked it, before import
		}
	}

	moved := f.r.DrainWorker(src)
	if len(moved) != 1 || moved[0] != sid {
		t.Fatalf("drain moved %v, want [%s]", moved, sid)
	}
	rt.mu.RLock()
	owner := rt.w
	rt.mu.RUnlock()
	if owner != fallback {
		t.Fatalf("session landed on %s, want fallback %s", owner.nameOf(), fallback.nameOf())
	}
	if r := w.roundTrip(serve.Request{Op: "exec", Session: sid, Line: "info filters"}); !r.OK {
		t.Fatalf("exec after re-route: %s", r.Error)
	}
	ev := w.waitEvent("session-migrated")
	if !strings.HasSuffix(ev.Reason, "-> "+fallback.nameOf()) {
		t.Errorf("session-migrated reason %q, want suffix %q", ev.Reason, "-> "+fallback.nameOf())
	}
}

// TestDrainDuringWatchdogStall: a drain that arrives while a session is
// wedged inside a long continue (watchdog armed, rate-stall bug) must
// wait for the command boundary: the client gets its continue response
// from the source worker, then the session migrates, then the next
// command lands on the destination.
func TestDrainDuringWatchdogStall(t *testing.T) {
	f := startFleet(t, 2, serve.Options{})
	w := dialWire(t, f.addr)
	params := *tinyParams
	params.Bug = "rate-stall"
	r := w.roundTrip(serve.Request{Op: "new", Params: &params})
	if !r.OK {
		t.Fatalf("new: %s", r.Error)
	}
	sid := r.Session
	if r := w.roundTrip(serve.Request{Op: "exec", Session: sid, Line: "watchdog 500000"}); !r.OK {
		t.Fatalf("watchdog: %s", r.Error)
	}

	rt, _ := f.r.getRoute(sid)
	rt.mu.RLock()
	src := rt.w
	rt.mu.RUnlock()

	// The wedge: a continue that runs into the induced rate stall. A
	// failed round trip comes back as an error response, reported below:
	// this goroutine may outlive the test.
	contCh := make(chan serve.Response, 1)
	go func() {
		r, err := w.c.RoundTrip(serve.Request{Op: "exec", Session: sid, Line: "continue"}, 120*time.Second)
		if err != nil {
			r.Error = err.Error()
		}
		contCh <- r
	}()
	drained := make(chan []string, 1)
	go func() { drained <- f.r.DrainWorker(src) }()

	select {
	case cont := <-contCh:
		if cont.Error != "" && !cont.OK {
			t.Fatalf("continue failed: %s", cont.Error)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("continue response never arrived (dropped during drain?)")
	}
	select {
	case moved := <-drained:
		if len(moved) != 1 {
			t.Fatalf("drain moved %v", moved)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("drain wedged behind the stalled run")
	}
	if r := w.roundTrip(serve.Request{Op: "exec", Session: sid, Line: "info filters"}); !r.OK {
		t.Fatalf("exec after drain: %s", r.Error)
	}
	rt.mu.RLock()
	owner := rt.w
	rt.mu.RUnlock()
	if owner == src {
		t.Error("session still on the drained worker")
	}
}

// TestAttachRacesMigration: attach is router-local, so clients
// attaching while a session migrates must never hang, error, or miss
// the post-migration event stream.
func TestAttachRacesMigration(t *testing.T) {
	f := startFleet(t, 2, serve.Options{})
	a := dialWire(t, f.addr)
	r := a.roundTrip(serve.Request{Op: "new", Params: tinyParams})
	if !r.OK {
		t.Fatalf("new: %s", r.Error)
	}
	sid := r.Session
	rt, _ := f.r.getRoute(sid)
	rt.mu.RLock()
	src := rt.w
	rt.mu.RUnlock()

	b := dialWire(t, f.addr)
	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				// Leave attached for the post-drain event check.
				if r := b.roundTrip(serve.Request{Op: "attach", Session: sid}); !r.OK {
					t.Errorf("final attach: %s", r.Error)
				}
				return
			default:
			}
			if r := b.roundTrip(serve.Request{Op: "attach", Session: sid}); !r.OK {
				t.Errorf("attach during migration: %s", r.Error)
				return
			}
			if r := b.roundTrip(serve.Request{Op: "detach", Session: sid}); !r.OK {
				t.Errorf("detach during migration: %s", r.Error)
				return
			}
		}
	}()

	moved := f.r.DrainWorker(src)
	close(stop)
	wg.Wait()
	if len(moved) != 1 {
		t.Fatalf("drain moved %v", moved)
	}
	// The re-attached client still receives the session's events.
	if r := a.roundTrip(serve.Request{Op: "exec", Session: sid, Line: "filter pipe catch work"}); !r.OK {
		t.Fatalf("catch: %s", r.Error)
	}
	if r := a.roundTrip(serve.Request{Op: "exec", Session: sid, Line: "continue"}); !r.OK {
		t.Fatalf("continue: %s", r.Error)
	}
	ev := b.waitEvent("stop")
	if ev.Session != sid {
		t.Errorf("stop event on wrong session: %+v", ev)
	}
}
