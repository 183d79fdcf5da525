// Package router implements the stateless fleet tier in front of
// multiple dfserve workers (DESIGN §14): one dfrouter speaks the same
// newline-delimited JSON wire protocol as a single worker, so existing
// clients point at the router and transparently gain a sharded fleet.
//
// Placement is rendezvous (highest-random-weight) hashing over the
// healthy, non-draining workers keyed by session id: every router
// instance computes the same owner for a session from the id alone, so
// the tier itself holds no durable state. The router assigns
// fleet-unique ids ("r1", "r2", ...) at creation and pins them on the
// worker, so placement is recomputable after a router restart (live
// sessions are re-adopted from the workers' own session lists).
//
// A draining worker — SIGTERM, or the admin "drain" op — is emptied by
// live migration: each session is exported at a command boundary into a
// DFCK container (full journal + state blob), imported on the
// rendezvous-chosen peer with replay verification (rebuild + replay +
// byte-compare; a migration that cannot prove state equivalence fails
// instead of resuming a different world), and the route flips under a
// per-session write lock so attached clients never see a dropped
// response — only a single "session-migrated" event. A peer that dies
// mid-import is retried at the next-ranked worker from the same
// container (the last good checkpoint).
package router

import (
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dfdbg/internal/obs"
	"dfdbg/internal/serve"
)

// Options configures a Router. Zero values take the listed defaults.
type Options struct {
	// Workers lists the dfserve workers, "name=addr" or bare "addr"
	// (the name is refined from the worker's ping reply either way).
	Workers []string

	PingInterval  time.Duration // worker health-check cadence (default 2s)
	DialTimeout   time.Duration // per-dial timeout (default 5s)
	EventQueueLen int           // per-client async event queue (default 256)
}

func (o Options) withDefaults() Options {
	if o.PingInterval == 0 {
		o.PingInterval = 2 * time.Second
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.EventQueueLen == 0 {
		o.EventQueueLen = 256
	}
	return o
}

// Router proxies wire-protocol clients onto a fleet of dfserve workers.
type Router struct {
	opts Options
	reg  *obs.Registry

	mu      sync.Mutex
	ln      net.Listener
	closed  bool
	workers []*worker
	routes  map[string]*route
	clients map[*rclient]struct{}

	done chan struct{}
	wg   sync.WaitGroup
	seq  atomic.Int64 // fleet session id generator

	sessionsRouted *obs.Counter
	commandsTotal  *obs.Counter
	migrations     *obs.Counter
	migrationBytes *obs.Counter
	eventsDropped  *obs.Counter
	sessionsLost   *obs.Counter
}

// New returns a router for the given worker fleet and starts the
// worker health/reconnect loops.
func New(opts Options) *Router {
	opts = opts.withDefaults()
	r := &Router{
		opts:    opts,
		reg:     obs.NewRegistry(),
		routes:  make(map[string]*route),
		clients: make(map[*rclient]struct{}),
		done:    make(chan struct{}),
	}
	r.sessionsRouted = r.reg.Counter("router_sessions_routed_total", "sessions created through the router")
	r.commandsTotal = r.reg.Counter("router_commands_total", "client requests forwarded to workers")
	r.migrations = r.reg.Counter("router_migrations_total", "sessions live-migrated between workers")
	r.migrationBytes = r.reg.Counter("router_migration_bytes_total", "DFCK container bytes shipped between workers")
	r.eventsDropped = r.reg.Counter("router_events_dropped_total", "events lost to per-client backpressure")
	r.sessionsLost = r.reg.Counter("router_sessions_lost_total", "routed sessions lost to worker death")
	r.reg.GaugeFunc("router_workers_total", "configured workers", func() float64 {
		return float64(len(r.workerSnapshot()))
	})
	r.reg.GaugeFunc("router_workers_healthy", "workers answering pings", func() float64 {
		n := 0
		for _, w := range r.workerSnapshot() {
			if w.isHealthy() {
				n++
			}
		}
		return float64(n)
	})
	r.reg.GaugeFunc("router_workers_draining", "workers shedding sessions", func() float64 {
		n := 0
		for _, w := range r.workerSnapshot() {
			if w.isDraining() {
				n++
			}
		}
		return float64(n)
	})
	r.reg.GaugeFunc("router_fleet_sessions", "sessions currently routed", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(len(r.routes))
	})
	for _, spec := range opts.Workers {
		name, addr := spec, spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			name, addr = spec[:i], spec[i+1:]
		}
		w := &worker{rt: r, name: name, addr: addr}
		r.workers = append(r.workers, w)
		r.wg.Add(1)
		go w.run()
	}
	return r
}

// Registry returns the router's metrics registry.
func (r *Router) Registry() *obs.Registry { return r.reg }

func (r *Router) workerSnapshot() []*worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*worker(nil), r.workers...)
}

func (r *Router) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// ListenAndServe listens on addr and serves until Close.
func (r *Router) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return r.Serve(ln)
}

// Addr returns the client-facing listen address ("" before Serve).
func (r *Router) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// Serve accepts client connections on ln until Close.
func (r *Router) Serve(ln net.Listener) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		ln.Close()
		return fmt.Errorf("router: closed")
	}
	r.ln = ln
	r.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if r.isClosed() {
				return nil
			}
			return err
		}
		cl := r.newClient(conn)
		r.mu.Lock()
		r.clients[cl] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			cl.Serve("dfrouter/1", cl.handle)
			for _, rt := range cl.attached {
				rt.unsubscribe(cl)
			}
			r.mu.Lock()
			delete(r.clients, cl)
			r.mu.Unlock()
		}()
	}
}

// newClient wraps an accepted connection in the server end of the wire,
// with the router's event queue bound and drop counter.
func (r *Router) newClient(conn net.Conn) *rclient {
	return &rclient{
		Endpoint: serve.NewEndpoint(conn, r.opts.EventQueueLen, r.eventsDropped),
		rt:       r,
		attached: make(map[string]*route),
	}
}

// Close stops accepting, detaches from the fleet and waits for the
// worker loops and client handlers to drain. Worker sessions are left
// running: the router is stateless and a restarted router re-adopts
// them.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.done)
	ln := r.ln
	workers := append([]*worker(nil), r.workers...)
	clients := make([]*rclient, 0, len(r.clients))
	for cl := range r.clients {
		clients = append(clients, cl)
	}
	routes := make([]*route, 0, len(r.routes))
	for _, rt := range r.routes {
		routes = append(routes, rt)
	}
	r.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, cl := range clients {
		cl.Close()
	}
	for _, rt := range routes {
		rt.mu.Lock()
		if rt.sc != nil {
			rt.sc.Close(fmt.Errorf("router: closed"))
		}
		rt.mu.Unlock()
	}
	for _, w := range workers {
		w.shutdown()
	}
	r.wg.Wait()
	return nil
}

// route is one session's routing entry: which worker owns it, over
// which per-session upstream connection, and which clients subscribed
// to its events. Commands forward under the read lock; a migration
// holds the write lock, so in-flight commands complete on the old
// worker and the next command lands on the new one.
type route struct {
	id string

	mu sync.RWMutex
	w  *worker
	sc *serve.Client

	subMu sync.Mutex
	subs  map[*rclient]struct{}
}

func newRoute(id string) *route {
	return &route{id: id, subs: make(map[*rclient]struct{})}
}

func (rt *route) subscribe(cl *rclient) {
	rt.subMu.Lock()
	rt.subs[cl] = struct{}{}
	rt.subMu.Unlock()
}

func (rt *route) unsubscribe(cl *rclient) {
	rt.subMu.Lock()
	delete(rt.subs, cl)
	rt.subMu.Unlock()
}

// publish fans an event out to the subscribed clients (drop-oldest at
// each client, never blocking).
func (rt *route) publish(ev serve.Event) {
	rt.subMu.Lock()
	subs := make([]*rclient, 0, len(rt.subs))
	for cl := range rt.subs {
		subs = append(subs, cl)
	}
	rt.subMu.Unlock()
	for _, cl := range subs {
		cl.Deliver(ev)
	}
}

// getRoute returns the live route for a session id.
func (r *Router) getRoute(id string) (*route, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rt, ok := r.routes[id]
	return rt, ok
}

// installRoute publishes a route into the table. It also advances the
// id generator past adopted "r<N>" ids so a restarted router never
// re-mints a live id.
func (r *Router) installRoute(rt *route) {
	if n, err := strconv.ParseInt(strings.TrimPrefix(rt.id, "r"), 10, 64); err == nil {
		for {
			cur := r.seq.Load()
			if n <= cur || r.seq.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	r.mu.Lock()
	r.routes[rt.id] = rt
	r.mu.Unlock()
}

// dropRoute removes a route (idempotent), closes its upstream conn and
// tells subscribers why the session went away. The caller must hold
// rt.mu.
func (r *Router) dropRoute(rt *route, reason string) {
	r.mu.Lock()
	_, live := r.routes[rt.id]
	delete(r.routes, rt.id)
	r.mu.Unlock()
	if rt.sc != nil {
		rt.sc.Close(fmt.Errorf("router: session %s closed: %s", rt.id, reason))
		rt.sc = nil
	}
	rt.w = nil
	if live && reason != "" {
		rt.publish(serve.Event{Event: "session-closed", Session: rt.id, Reason: reason})
	}
}

// dropQuiet removes a route without a close notice (the worker-side
// event stream already told the subscribers why, or the client asked
// for the container itself). The caller must hold rt.mu.
func (r *Router) dropQuiet(rt *route) {
	r.mu.Lock()
	delete(r.routes, rt.id)
	r.mu.Unlock()
	if rt.sc != nil {
		rt.sc.Close(fmt.Errorf("router: session %s ended", rt.id))
		rt.sc = nil
	}
	rt.w = nil
}

// nextID mints a fleet-unique session id.
func (r *Router) nextID() string {
	return "r" + strconv.FormatInt(r.seq.Add(1), 10)
}

// score is the rendezvous weight of (session, worker): the owner of a
// session is the eligible worker with the highest score, a pure
// function of the pair, so every router instance agrees without shared
// state.
func score(session, workerName string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(session))
	h.Write([]byte{'|'})
	h.Write([]byte(workerName))
	return h.Sum64()
}

// ranked returns the eligible workers (healthy, not draining, not
// exclude) in rendezvous order for a session id, best first.
func (r *Router) ranked(session string, exclude *worker) []*worker {
	var ws []*worker
	for _, w := range r.workerSnapshot() {
		if w == exclude || !w.isHealthy() || w.isDraining() {
			continue
		}
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool {
		si, sj := score(session, ws[i].nameOf()), score(session, ws[j].nameOf())
		if si != sj {
			return si > sj
		}
		return ws[i].nameOf() < ws[j].nameOf()
	})
	return ws
}

// routesOn snapshots the routes currently owned by w.
func (r *Router) routesOn(w *worker) []*route {
	r.mu.Lock()
	routes := make([]*route, 0, len(r.routes))
	for _, rt := range r.routes {
		routes = append(routes, rt)
	}
	r.mu.Unlock()
	var out []*route
	for _, rt := range routes {
		rt.mu.RLock()
		owned := rt.w == w
		rt.mu.RUnlock()
		if owned {
			out = append(out, rt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// workerByName finds a worker by fleet name or address.
func (r *Router) workerByName(name string) *worker {
	for _, w := range r.workerSnapshot() {
		if w.nameOf() == name || w.addr == name {
			return w
		}
	}
	return nil
}

// fleet summarizes the workers for the "fleet" op and /api/fleet.
func (r *Router) fleet() []serve.WorkerInfo {
	var rows []serve.WorkerInfo
	for _, w := range r.workerSnapshot() {
		n := 0
		for range r.routesOn(w) {
			n++
		}
		rows = append(rows, serve.WorkerInfo{
			Name:     w.nameOf(),
			Addr:     w.addr,
			Healthy:  w.isHealthy(),
			Draining: w.isDraining(),
			Sessions: n,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}
