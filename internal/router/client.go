package router

import (
	"fmt"
	"sort"
	"strings"

	"dfdbg/internal/serve"
)

// rclient is one downstream wire-protocol connection: the shared
// server end, handling requests in order with the same semantics as a
// worker, plus the routes this connection is attached to.
type rclient struct {
	*serve.Endpoint
	rt       *Router
	attached map[string]*route
}

// attach subscribes the client to a route's events.
func (cl *rclient) attach(rt *route) {
	if _, ok := cl.attached[rt.id]; ok {
		return
	}
	cl.attached[rt.id] = rt
	rt.subscribe(cl)
}

// handle executes one request against the fleet.
func (cl *rclient) handle(req serve.Request) {
	resp := serve.Response{ID: req.ID, Session: req.Session}
	fail := func(err error) {
		resp.Error = err.Error()
		cl.Respond(resp)
	}
	switch req.Op {
	case "ping":
		resp.OK = true
		resp.Worker = "dfrouter"
	case "new":
		cl.handleNew(req, &resp, fail)
		return
	case "attach":
		rt, ok := cl.rt.getRoute(req.Session)
		if !ok {
			fail(fmt.Errorf("%w: %q", serve.ErrNoSession, req.Session))
			return
		}
		// Attach is router-local: the router's per-session worker
		// connection is already subscribed upstream, so attaching during
		// a migration needs no worker round trip and cannot race the
		// route flip.
		cl.attach(rt)
		resp.OK = true
	case "detach":
		if rt, ok := cl.attached[req.Session]; ok {
			rt.unsubscribe(cl)
			delete(cl.attached, req.Session)
		}
		resp.OK = true
	case "list":
		resp.OK = true
		resp.Sessions = cl.rt.listFleet()
	case "fleet":
		resp.OK = true
		resp.Workers = cl.rt.fleet()
	case "drain":
		w := cl.rt.workerByName(req.Worker)
		if w == nil {
			fail(fmt.Errorf("router: no worker %q", req.Worker))
			return
		}
		moved := cl.rt.DrainWorker(w)
		resp.OK = true
		resp.Worker = w.nameOf()
		for _, id := range moved {
			resp.Sessions = append(resp.Sessions, serve.SessionInfo{ID: id})
		}
	case "metrics":
		if req.Session == "" {
			resp.OK = true
			resp.Metrics = cl.rt.reg.Snapshot()
			break
		}
		cl.forward(req, &resp, fail)
		return
	case "exec", "complete", "checkpoint", "restore", "checkpoints", "kill", "export", "import":
		cl.forward(req, &resp, fail)
		return
	default:
		fail(fmt.Errorf("router: unknown op %q", req.Op))
		return
	}
	cl.Respond(resp)
}

// handleNew places a session: the router mints the fleet-unique id,
// ranks the eligible workers by rendezvous score and creates the
// session on the best one that will take it.
func (cl *rclient) handleNew(req serve.Request, resp *serve.Response, fail func(error)) {
	id := req.Session
	if id == "" {
		id = cl.rt.nextID()
	} else if rt, ok := cl.rt.getRoute(id); ok && rt != nil {
		fail(fmt.Errorf("%w: %q", serve.ErrDuplicateID, id))
		return
	}
	workers := cl.rt.ranked(id, nil)
	if len(workers) == 0 {
		fail(fmt.Errorf("router: no healthy worker"))
		return
	}
	var lastErr error
	for _, w := range workers {
		rt := newRoute(id)
		sc, err := cl.rt.dialSession(w, rt)
		if err != nil {
			lastErr = err
			continue
		}
		up := serve.Request{Op: "new", Session: id, Params: req.Params}
		r2, err := sc.RoundTrip(up, 0)
		if err != nil {
			lastErr = err
			continue
		}
		if !r2.OK {
			sc.Close(fmt.Errorf("router: new refused"))
			lastErr = fmt.Errorf("%s", r2.Error)
			if strings.Contains(r2.Error, "already in use") {
				// A duplicate pinned id must not fall through to another
				// worker — that would fork the session.
				break
			}
			continue
		}
		rt.mu.Lock()
		rt.w = w
		rt.sc = sc
		rt.mu.Unlock()
		cl.rt.installRoute(rt)
		cl.attach(rt)
		cl.rt.sessionsRouted.Inc()
		resp.OK = true
		resp.Session = id
		cl.Respond(*resp)
		return
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("router: no healthy worker")
	}
	fail(lastErr)
}

// forward proxies one session-scoped request to the owning worker. The
// route's read lock is held across the round trip, so a concurrent
// migration waits for this command and the next one lands on the new
// worker.
func (cl *rclient) forward(req serve.Request, resp *serve.Response, fail func(error)) {
	rt, ok := cl.rt.getRoute(req.Session)
	if !ok {
		fail(fmt.Errorf("%w: %q", serve.ErrNoSession, req.Session))
		return
	}
	rt.mu.RLock()
	sc := rt.sc
	if sc == nil {
		rt.mu.RUnlock()
		fail(fmt.Errorf("%w: %q", serve.ErrNoSession, req.Session))
		return
	}
	cl.rt.commandsTotal.Inc()
	r2, err := sc.RoundTrip(req, 0)
	rt.mu.RUnlock()
	if err != nil {
		fail(fmt.Errorf("router: worker lost: %v", err))
		return
	}
	r2.ID = req.ID
	if r2.Session == "" {
		r2.Session = req.Session
	}
	cl.Respond(r2)

	// A session that ended upstream — quit, kill, or an export a client
	// issued directly — leaves the table; the worker-side close event
	// tells the subscribers why.
	gone := r2.Done || (req.Op == "kill" && r2.OK) || (req.Op == "export" && r2.OK)
	if gone {
		rt.mu.Lock()
		if rt.sc == sc {
			cl.rt.dropQuiet(rt)
		}
		rt.mu.Unlock()
	}
}

// listFleet merges every healthy worker's session list (each session
// lives on exactly one worker).
func (r *Router) listFleet() []serve.SessionInfo {
	var out []serve.SessionInfo
	for _, w := range r.workerSnapshot() {
		ctl := w.ctlConn()
		if ctl == nil || !w.isHealthy() {
			continue
		}
		resp, err := ctl.RoundTrip(serve.Request{Op: "list"}, w.pingTimeout())
		if err != nil || !resp.OK {
			continue
		}
		out = append(out, resp.Sessions...)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].ID) != len(out[j].ID) {
			return len(out[i].ID) < len(out[j].ID)
		}
		return out[i].ID < out[j].ID
	})
	return out
}
