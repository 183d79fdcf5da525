package router

import (
	"fmt"
	"sync"
	"time"

	"dfdbg/internal/serve"
)

// pingTimeout bounds a health-check round trip. It is floored well
// above the ping cadence: a briefly CPU-starved worker (say, replaying
// migrated-in journals under load) must be slow, not dead — actual
// worker death severs the TCP connection and is detected immediately
// through the read loop regardless of this timeout.
func (w *worker) pingTimeout() time.Duration {
	d := 2 * w.rt.opts.PingInterval
	if d < 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// worker is the control-plane view of one dfserve worker: a persistent
// control connection with health checks and reconnect, plus the
// draining flag that takes it out of the placement pool.
type worker struct {
	rt   *Router
	addr string

	mu       sync.Mutex
	name     string
	ctl      *serve.Client
	healthy  bool
	draining bool
	stopped  bool
}

func (w *worker) nameOf() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.name
}

func (w *worker) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

func (w *worker) isDraining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// beginDrain flips the worker into draining mode; false if it already
// was (one drain orchestration at a time).
func (w *worker) beginDrain() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.draining {
		return false
	}
	w.draining = true
	return true
}

func (w *worker) ctlConn() *serve.Client {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ctl
}

func (w *worker) shutdown() {
	w.mu.Lock()
	w.stopped = true
	ctl := w.ctl
	w.mu.Unlock()
	if ctl != nil {
		ctl.Close(fmt.Errorf("router: closed"))
	}
}

// run is the worker's control loop: dial, identify, adopt the worker's
// live sessions, then ping until the connection dies; reconnect with
// backoff until the router closes.
func (w *worker) run() {
	defer w.rt.wg.Done()
	for {
		select {
		case <-w.rt.done:
			return
		default:
		}
		ctl, err := serve.Dial(w.addr, w.rt.opts.DialTimeout, w.handleEvent, nil)
		if err != nil {
			w.setHealthy(false)
			if !w.sleep(w.rt.opts.PingInterval) {
				return
			}
			continue
		}
		w.mu.Lock()
		if w.stopped {
			w.mu.Unlock()
			ctl.Close(fmt.Errorf("router: closed"))
			return
		}
		w.ctl = ctl
		w.mu.Unlock()

		resp, err := ctl.RoundTrip(serve.Request{Op: "ping"}, w.pingTimeout())
		if err == nil && resp.OK {
			if resp.Worker != "" {
				w.mu.Lock()
				w.name = resp.Worker
				w.mu.Unlock()
			}
			w.setHealthy(true)
			w.rt.adoptWorker(w, ctl)
			w.pingLoop(ctl)
		} else {
			ctl.Close(fmt.Errorf("router: worker hello failed"))
		}
		w.setHealthy(false)
		if !w.sleep(w.rt.opts.PingInterval) {
			return
		}
	}
}

func (w *worker) setHealthy(ok bool) {
	w.mu.Lock()
	w.healthy = ok
	w.mu.Unlock()
}

// sleep waits d or until the router closes; false means shut down.
func (w *worker) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-w.rt.done:
		return false
	case <-t.C:
		return true
	}
}

// pingLoop health-checks the control connection until it dies or the
// router closes.
func (w *worker) pingLoop(ctl *serve.Client) {
	t := time.NewTicker(w.rt.opts.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-w.rt.done:
			return
		case <-ctl.Done():
			return
		case <-t.C:
			if _, err := ctl.RoundTrip(serve.Request{Op: "ping"}, w.pingTimeout()); err != nil {
				return
			}
		}
	}
}

// handleEvent reacts to worker-wide events on the control connection.
// A "draining" broadcast (the worker got SIGTERM) triggers the same
// migration orchestration as the admin drain op.
func (w *worker) handleEvent(_ *serve.Client, ev serve.Event) {
	if ev.Event == "draining" {
		go w.rt.DrainWorker(w)
	}
}

// adoptWorker folds a worker's pre-existing sessions into the routing
// table: sessions created before the router started (or across a
// router restart — the tier is stateless) get a dedicated session
// connection and their ids reserved in the generator.
func (r *Router) adoptWorker(w *worker, ctl *serve.Client) {
	resp, err := ctl.RoundTrip(serve.Request{Op: "list"}, w.pingTimeout())
	if err != nil || !resp.OK {
		return
	}
	for _, si := range resp.Sessions {
		if rt, ok := r.getRoute(si.ID); ok {
			rt.mu.RLock()
			live := rt.sc != nil
			rt.mu.RUnlock()
			if live {
				continue
			}
		}
		rt := newRoute(si.ID)
		sc, err := r.dialSession(w, rt)
		if err != nil {
			return
		}
		if resp, err := sc.RoundTrip(serve.Request{Op: "attach", Session: si.ID}, 0); err != nil || !resp.OK {
			sc.Close(fmt.Errorf("router: adopt attach failed"))
			continue
		}
		rt.mu.Lock()
		rt.w = w
		rt.sc = sc
		rt.mu.Unlock()
		r.installRoute(rt)
	}
}

// dialSession opens the dedicated upstream connection for one session:
// its events flow to the route's subscribers, and its death takes the
// route down (unless a migration already moved it).
func (r *Router) dialSession(w *worker, rt *route) (*serve.Client, error) {
	return serve.Dial(w.addr, r.opts.DialTimeout,
		func(c *serve.Client, ev serve.Event) { r.routeEvent(rt, ev, c) },
		func(c *serve.Client, _ error) { r.sessionConnDown(rt, c) })
}

// routeEvent forwards a session's worker-side events to its
// subscribers. The worker's own close notice for a migrated-away
// session is suppressed: the router speaks for the fleet, and the
// fleet-level truth is a single "session-migrated" event. Runs on the
// connection's event pump, so blocking on the route lock here cannot
// stall response delivery.
func (r *Router) routeEvent(rt *route, ev serve.Event, sc *serve.Client) {
	switch ev.Event {
	case "hello", "goodbye", "dropped", "draining":
		return
	case "session-closed":
		if ev.Reason == "migrated" {
			return
		}
		rt.mu.Lock()
		if rt.sc == sc {
			r.dropRoute(rt, ev.Reason)
		}
		rt.mu.Unlock()
		return
	}
	rt.publish(ev)
}

// sessionConnDown handles a session connection dying out from under its
// route: if the route still points at this connection the session is
// gone with its worker (a migration or kill swaps sc first and is not
// affected).
func (r *Router) sessionConnDown(rt *route, sc *serve.Client) {
	if r.isClosed() {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.sc != sc || sc == nil {
		return
	}
	r.sessionsLost.Inc()
	r.dropRoute(rt, "worker-lost")
}
