package serve

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// tinyParams keeps per-session simulation cost low in tests.
var tinyParams = &SessionParams{W: 16, H: 16, QP: 8, Seed: 7}

// startServer boots a server on a loopback listener and tears it down
// with the test.
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	srv := NewServer(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// wire is a test-side protocol client: the shared Client with every
// failure a t.Fatalf, and async events on a channel.
type wire struct {
	t      *testing.T
	c      *Client
	events chan Event
}

func dialWire(t *testing.T, addr string) *wire {
	t.Helper()
	w := &wire{t: t, events: make(chan Event, 256)}
	c, err := Dial(addr, 10*time.Second, func(_ *Client, ev Event) {
		select {
		case w.events <- ev:
		default:
		}
	}, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	w.c = c
	t.Cleanup(func() { c.Close(nil) })
	return w
}

// roundTrip sends req (assigning an id) and waits for its response.
func (w *wire) roundTrip(req Request) Response {
	w.t.Helper()
	r, err := w.c.RoundTrip(req, 60*time.Second)
	if err != nil {
		w.t.Fatalf("%v", err)
	}
	return r
}

// waitEvent waits for the next event of the given kind, discarding
// others.
func (w *wire) waitEvent(kind string) Event {
	w.t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case ev := <-w.events:
			if ev.Event == kind {
				return ev
			}
		case <-deadline:
			w.t.Fatalf("no %q event", kind)
		}
	}
}

func TestProtocolBasics(t *testing.T) {
	_, addr := startServer(t, Options{IdleTimeout: -1})
	w := dialWire(t, addr)

	if ev := w.waitEvent("hello"); ev.Reason == "" {
		t.Errorf("hello event has no protocol version: %+v", ev)
	}
	if r := w.roundTrip(Request{Op: "ping"}); !r.OK {
		t.Fatalf("ping failed: %+v", r)
	}

	r := w.roundTrip(Request{Op: "new", Params: tinyParams})
	if !r.OK || r.Session == "" {
		t.Fatalf("new failed: %+v", r)
	}
	sid := r.Session

	r = w.roundTrip(Request{Op: "exec", Session: sid, Line: "info filters"})
	if !r.OK || r.Output == "" {
		t.Fatalf("exec info filters: %+v", r)
	}
	if r = w.roundTrip(Request{Op: "exec", Session: sid, Line: "bogus-command"}); r.OK || r.Error == "" {
		t.Fatalf("bogus command should fail with an error: %+v", r)
	}

	r = w.roundTrip(Request{Op: "complete", Session: sid, Line: "inf"})
	if !r.OK {
		t.Fatalf("complete: %+v", r)
	}
	found := false
	for _, c := range r.Completions {
		if strings.HasPrefix(c, "info") {
			found = true
		}
	}
	if !found {
		t.Errorf("completions for \"inf\" lack info: %v", r.Completions)
	}

	r = w.roundTrip(Request{Op: "list"})
	if !r.OK || len(r.Sessions) != 1 || r.Sessions[0].ID != sid {
		t.Fatalf("list: %+v", r)
	}
	if r.Sessions[0].Commands == 0 || r.Sessions[0].Clients != 1 {
		t.Errorf("session info: %+v", r.Sessions[0])
	}

	r = w.roundTrip(Request{Op: "metrics"})
	if !r.OK {
		t.Fatalf("server metrics: %+v", r)
	}
	vals := map[string]float64{}
	for _, mv := range r.Metrics {
		vals[mv.Name] = mv.Value
	}
	if vals["sessions_active"] != 1 {
		t.Errorf("sessions_active = %v, want 1", vals["sessions_active"])
	}
	if vals["commands_total"] < 2 {
		t.Errorf("commands_total = %v, want >= 2", vals["commands_total"])
	}
	if r = w.roundTrip(Request{Op: "metrics", Session: sid}); !r.OK || len(r.Metrics) == 0 {
		t.Fatalf("session metrics: %+v", r)
	}

	if r = w.roundTrip(Request{Op: "exec", Session: "s999", Line: "help"}); r.OK ||
		!strings.Contains(r.Error, "no such session") {
		t.Fatalf("exec on missing session: %+v", r)
	}
	if r = w.roundTrip(Request{Op: "frobnicate"}); r.OK || !strings.Contains(r.Error, "unknown op") {
		t.Fatalf("unknown op: %+v", r)
	}

	// A malformed line yields an id-0 error response, not a dead server.
	w.c.mu.Lock()
	ch := make(chan Response, 1)
	w.c.pending[0] = ch
	w.c.mu.Unlock()
	if _, err := w.c.conn.Write([]byte("{not json\n")); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	select {
	case r = <-ch:
		if !strings.Contains(r.Error, "bad request") {
			t.Errorf("garbage line: %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no response to garbage line")
	}

	if r = w.roundTrip(Request{Op: "kill", Session: sid}); !r.OK {
		t.Fatalf("kill: %+v", r)
	}
	if ev := w.waitEvent("session-closed"); ev.Session != sid || ev.Reason != "killed" {
		t.Errorf("session-closed event: %+v", ev)
	}
	if r = w.roundTrip(Request{Op: "list"}); len(r.Sessions) != 0 {
		t.Fatalf("session survived kill: %+v", r)
	}
}

func TestStopEventFanout(t *testing.T) {
	_, addr := startServer(t, Options{IdleTimeout: -1})
	w1 := dialWire(t, addr)
	w2 := dialWire(t, addr)

	r := w1.roundTrip(Request{Op: "new", Params: tinyParams})
	if !r.OK {
		t.Fatalf("new: %+v", r)
	}
	sid := r.Session
	if r = w2.roundTrip(Request{Op: "attach", Session: sid}); !r.OK {
		t.Fatalf("attach: %+v", r)
	}

	r = w1.roundTrip(Request{Op: "exec", Session: sid, Line: "continue"})
	if !r.OK || r.Stop == nil {
		t.Fatalf("continue: %+v", r)
	}
	for _, w := range []*wire{w1, w2} {
		ev := w.waitEvent("stop")
		if ev.Session != sid || ev.Stop == nil {
			t.Fatalf("stop event: %+v", ev)
		}
		if ev.Stop.Reason != r.Stop.Reason {
			t.Errorf("event stop %q != response stop %q", ev.Stop.Reason, r.Stop.Reason)
		}
	}

	// After detach, w2 no longer hears about the session.
	if r = w2.roundTrip(Request{Op: "detach", Session: sid}); !r.OK {
		t.Fatalf("detach: %+v", r)
	}
	if r = w1.roundTrip(Request{Op: "exec", Session: sid, Line: "quit"}); !r.Done {
		t.Fatalf("quit: %+v", r)
	}
	w1.waitEvent("session-closed")
	select {
	case ev := <-w2.events:
		if ev.Event == "session-closed" {
			t.Errorf("detached client still got %+v", ev)
		}
	case <-time.After(100 * time.Millisecond):
	}
}

func TestSessionLimit(t *testing.T) {
	_, addr := startServer(t, Options{MaxSessions: 1, IdleTimeout: -1})
	w := dialWire(t, addr)

	r := w.roundTrip(Request{Op: "new", Params: tinyParams})
	if !r.OK {
		t.Fatalf("new: %+v", r)
	}
	first := r.Session
	if r = w.roundTrip(Request{Op: "new", Params: tinyParams}); r.OK ||
		!strings.Contains(r.Error, "session limit") {
		t.Fatalf("second new should hit the limit: %+v", r)
	}
	if r = w.roundTrip(Request{Op: "kill", Session: first}); !r.OK {
		t.Fatalf("kill: %+v", r)
	}
	if r = w.roundTrip(Request{Op: "new", Params: tinyParams}); !r.OK {
		t.Fatalf("new after kill: %+v", r)
	}
}

func TestConnLimit(t *testing.T) {
	_, addr := startServer(t, Options{MaxConns: 1, IdleTimeout: -1})
	w := dialWire(t, addr)
	w.waitEvent("hello")

	over := dialWire(t, addr)
	select {
	case ev := <-over.events:
		if ev.Event != "goodbye" || !strings.Contains(ev.Reason, "connection limit") {
			t.Fatalf("goodbye event: %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("over-limit connection closed without a goodbye")
	}
	select {
	case <-over.c.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("over-limit connection stayed open")
	}
	// Events read before the close may still be in the client's pump.
	select {
	case ev := <-over.events:
		t.Fatalf("over-limit connection sent after its goodbye: %+v", ev)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestEventQueueDropOldest: a reader that falls behind loses the oldest
// events first and events_dropped_total advances; once the writer
// drains, the reader is told how much it missed, then gets the
// surviving events in order. The connection is built as Serve builds
// it; internal/router runs the same test against the router's wiring.
func TestEventQueueDropOldest(t *testing.T) {
	srv := NewServer(Options{EventQueueLen: 4, IdleTimeout: -1})
	defer srv.Close()
	local, remote := net.Pipe()
	cl := srv.newClient(local)

	// Writer not running: the queue fills and drops oldest.
	for i := 0; i < 10; i++ {
		cl.Deliver(Event{Event: "stop", Reason: fmt.Sprint(i)})
	}
	if got := srv.Manager().eventsDropped.Value(); got != 6 {
		t.Errorf("events_dropped_total = %d, want 6", got)
	}
	events := make(chan Event, 16)
	c := NewClient(remote, func(_ *Client, ev Event) { events <- ev }, nil)
	defer c.Close(nil)
	go cl.Serve("dfserve/1", cl.handle)
	for i, want := range []Event{
		{Event: "hello", Reason: "dfserve/1"},
		{Event: "dropped", Dropped: 6},
		{Event: "stop", Reason: "6"},
		{Event: "stop", Reason: "7"},
		{Event: "stop", Reason: "8"},
		{Event: "stop", Reason: "9"},
	} {
		select {
		case ev := <-events:
			if ev != want {
				t.Errorf("event %d = %+v, want %+v", i, ev, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("stream ended at event %d", i)
		}
	}
	select {
	case ev := <-events:
		t.Errorf("unexpected trailing event %+v", ev)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestIdleReap(t *testing.T) {
	mgr := NewManager(4, 50*time.Millisecond)
	s, err := mgr.Create(*tinyParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := s.Exec("info filters"); err != nil {
		t.Fatalf("exec: %v", err)
	}
	if n := mgr.ReapIdle(); n != 0 {
		t.Fatalf("reaped a fresh session (%d)", n)
	}
	time.Sleep(120 * time.Millisecond)
	if n := mgr.ReapIdle(); n != 1 {
		t.Fatalf("reaped %d sessions, want 1", n)
	}
	if _, err := mgr.Get(s.ID); !errors.Is(err, ErrNoSession) {
		t.Errorf("Get after reap: %v", err)
	}
	if _, err := s.Exec("help"); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Exec after reap: %v", err)
	}
	if got := mgr.sessionsReaped.Value(); got != 1 {
		t.Errorf("sessions_reaped_total = %d, want 1", got)
	}
}

// chanSub collects published events for assertions.
type chanSub struct{ ch chan Event }

func (c *chanSub) Deliver(ev Event) {
	select {
	case c.ch <- ev:
	default:
	}
}

func TestQuitTearsDownSession(t *testing.T) {
	mgr := NewManager(4, 0)
	s, err := mgr.Create(*tinyParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	sub := &chanSub{ch: make(chan Event, 16)}
	s.Subscribe(sub)
	res, err := s.Exec("quit")
	if err != nil {
		t.Fatalf("exec quit: %v", err)
	}
	if !res.Quit {
		t.Fatalf("quit result: %+v", res)
	}
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("session goroutine did not exit after quit")
	}
	if _, err := mgr.Get(s.ID); !errors.Is(err, ErrNoSession) {
		t.Errorf("Get after quit: %v", err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-sub.ch:
			if ev.Event == "session-closed" {
				if ev.Reason != "quit" {
					t.Errorf("close reason %q, want quit", ev.Reason)
				}
				return
			}
		case <-deadline:
			t.Fatal("no session-closed event")
		}
	}
}

func TestCreateRejectsBadParams(t *testing.T) {
	mgr := NewManager(4, 0)
	if _, err := mgr.Create(SessionParams{Bug: "not-a-bug"}); err == nil {
		t.Fatal("bad bug name accepted")
	}
	if got := mgr.List(); len(got) != 0 {
		t.Fatalf("failed create left sessions behind: %+v", got)
	}
}

// A command that ends its session (quit, export) is answered before the
// session goroutine closes done; the caller must get that answer, not
// ErrSessionClosed. Losing an export's answer loses the session.
func TestFinalReplyWinsOverClose(t *testing.T) {
	mgr := NewManager(0, 0)
	defer mgr.CloseAll()
	lost := 0
	for i := 0; i < 200; i++ {
		s, err := mgr.Create(SessionParams{W: 16, H: 16, QP: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if r, err := s.Exec("quit"); err != nil || !r.Quit {
				lost++
			}
		} else if _, _, err := s.Export(); err != nil {
			lost++
		}
	}
	if lost != 0 {
		t.Errorf("%d of 200 final replies lost", lost)
	}
}
