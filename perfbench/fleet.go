package main

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"dfdbg/internal/obs"
	"dfdbg/internal/router"
	"dfdbg/internal/serve"
)

const (
	fleetWorkers  = 3
	fleetSessions = 6 // sessions the client drives round-robin
	fleetBoots    = 3 // fleet boots in set-up; setup_s is their median
)

// fleetWL runs in-process dfserve workers behind a dfrouter on loopback
// TCP. One client connection drives its sessions through the script
// round-robin, checks every transcript against a solo unmigrated run,
// kills them and opens fresh ones. A second, admin connection drains
// the busiest worker at a seeded point of the measured loop, so the
// client's commands on migrating sessions wait behind the migration.
// Two connections stay within nproc on the reference host; a second
// client lane would share the single P (see main) and queue its
// commands behind the other lane's restores.
type fleetWL struct {
	params  serve.SessionParams
	script  []string
	golden  string
	drainAt float64 // share of the measured loop after which the drain fires

	f        *fleet
	client   *wireClient
	admin    *wireClient
	sessions []string // the client's live sessions

	drained string // worker the drain emptied ("" before it fired)
}

// fleet is one booted router + workers.
type fleet struct {
	workers []*serve.Server
	addrs   []string
	served  sync.WaitGroup // Serve loops of workers and router
	r       *router.Router
	raddr   string
}

func newFleet(seed int64) (*fleetWL, error) {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x7f4a7c15
	return &fleetWL{
		params:  sessionParams(seed),
		script:  fleetScript,
		drainAt: 0.3 + 0.4*float64(h>>32%1000)/1000,
	}, nil
}

func (w *fleetWL) lanes() int { return 1 }

// setup boots the fleet fleetBoots times (each boot: workers, router,
// health, and the client's first sessions) and keeps the last; the heap
// is read with that fleet and its sessions up.
func (w *fleetWL) setup(l *ledger) error {
	mgr := serve.NewManager(1, 0)
	g, err := goldenTranscript(mgr, w.params, w.script)
	mgr.CloseAll()
	if err != nil {
		return err
	}
	w.golden = g
	for i := 0; i < fleetBoots; i++ {
		w.close()
		l.probeHost()
		t := time.Now()
		if err := w.boot(); err != nil {
			return err
		}
		l.timing("setup_s", time.Since(t).Seconds())
	}
	l.set("heap_mb", liveHeapMB())
	return nil
}

func (w *fleetWL) boot() error {
	f := &fleet{}
	w.f = f
	var specs []string
	for i := 0; i < fleetWorkers; i++ {
		name := fmt.Sprintf("w%d", i+1)
		srv := serve.NewServer(serve.Options{Name: name, IdleTimeout: -1})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		f.workers = append(f.workers, srv)
		f.addrs = append(f.addrs, ln.Addr().String())
		f.served.Add(1)
		go func() {
			defer f.served.Done()
			_ = srv.Serve(ln)
		}()
		specs = append(specs, name+"="+ln.Addr().String())
	}
	f.r = router.New(router.Options{Workers: specs, PingInterval: 200 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.raddr = ln.Addr().String()
	f.served.Add(1)
	go func() {
		defer f.served.Done()
		_ = f.r.Serve(ln)
	}()
	if w.client, err = dialWire(f.raddr); err != nil {
		return err
	}
	if w.admin, err = dialWire(f.raddr); err != nil {
		return err
	}
	if err := w.waitHealthy(); err != nil {
		return err
	}
	return w.open(nil)
}

// waitHealthy polls the router until every worker passed a health check.
func (w *fleetWL) waitHealthy() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := w.admin.must(serve.Request{Op: "fleet"})
		if err != nil {
			return err
		}
		healthy := 0
		for _, wi := range r.Workers {
			if wi.Healthy {
				healthy++
			}
		}
		if healthy == fleetWorkers {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d/%d workers healthy after 30s", healthy, fleetWorkers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// open creates the client's sessions through the router.
func (w *fleetWL) open(l *ledger) error {
	for len(w.sessions) < fleetSessions {
		t := time.Now()
		r, err := w.client.must(serve.Request{Op: "new", Params: &w.params})
		if l != nil {
			l.span("router.new", t)
			l.op(err)
		}
		if err != nil {
			return err
		}
		w.sessions = append(w.sessions, r.Session)
	}
	return nil
}

// loop drives the client until the deadline; the seeded drain fires
// only in the measured loop.
func (w *fleetWL) loop(l *ledger, until time.Time, measured bool) {
	var drain sync.WaitGroup
	if measured {
		start := time.Now()
		at := start.Add(time.Duration(w.drainAt * float64(until.Sub(start))))
		drain.Add(1)
		go func() {
			defer drain.Done()
			time.Sleep(time.Until(at))
			w.drain(l)
		}()
	}
	for time.Now().Before(until) {
		if !w.cycle(l) {
			break
		}
	}
	drain.Wait()
}

// cycle runs the script round-robin over the sessions, verifies their
// transcripts, kills them and opens fresh ones. It returns false when
// the client can no longer make progress.
func (w *fleetWL) cycle(l *ledger) bool {
	trans := make([]strings.Builder, len(w.sessions))
	decode := make([]decodeTime, len(w.sessions)) // per session
	for i, line := range w.script {
		l.probeHost()
		for j, sid := range w.sessions {
			t := time.Now()
			r, err := w.client.call(serve.Request{Op: "exec", Session: sid, Line: line})
			d := l.span("router.exec", t)
			if verb(line) == "continue" {
				l.addDecode(&decode[j], d)
			}
			if err == nil && !r.OK {
				err = fmt.Errorf("%s refused: %s", line, r.Error)
			}
			l.command(strconv.Itoa(i), line, d, err)
			render(&trans[j], line, r.Output, r.Error, r.Stop)
		}
	}
	t := time.Now()
	for j := range trans {
		if got := trans[j].String(); got != w.golden {
			l.op(fmt.Errorf("fleet session %s transcript differs from the solo run:\n%s",
				w.sessions[j], firstDiff(w.golden, got)))
		} else {
			l.op(nil)
			l.addFrames(1, decode[j])
		}
	}
	l.span("bench.verify", t)
	for _, sid := range w.sessions {
		t := time.Now()
		_, err := w.client.must(serve.Request{Op: "kill", Session: sid})
		l.span("router.kill", t)
		l.op(err)
	}
	w.sessions = w.sessions[:0]
	return w.open(l) == nil
}

// drain empties the worker hosting the most sessions through the
// router's drain op, so every drain migrates something. It runs on the
// admin connection, beside the client lane, and is not a lane span.
func (w *fleetWL) drain(l *ledger) {
	busiest, most := 0, -1
	for i, srv := range w.f.workers {
		if n := len(srv.Manager().List()); n > most {
			busiest, most = i, n
		}
	}
	w.drained = fmt.Sprintf("w%d", busiest+1)
	t := time.Now()
	r, err := w.admin.must(serve.Request{Op: "drain", Worker: w.drained})
	d := time.Since(t)
	l.op(err)
	l.sample("drain_s", d.Seconds())
	l.set("router.drained_sessions", float64(len(r.Sessions)))
}

// probe measures the layers of one command and one migration from
// outside: the same `info filters` in process, over a direct worker
// connection and through the router, and export/import wire ops on
// fresh probe sessions.
func (w *fleetWL) probe(l *ledger) {
	snap := counterMap(w.f.r.Registry().Snapshot())
	l.set("router.migrations", snap["router_migrations_total"])
	l.set("router.commands", snap["router_commands_total"])
	if s := l.summary("drain_s"); s.N > 0 && snap["router_migrations_total"] > 0 {
		l.set("router.migrate_ms", s.P50*1000/snap["router_migrations_total"])
	}
	l.op(w.probeHop(l))
	l.op(w.probeMigration(l))
}

// probeHop times one query three ways on a router-placed session.
func (w *fleetWL) probeHop(l *ledger) error {
	rc := w.client
	r, err := rc.must(serve.Request{Op: "new", Params: &w.params})
	if err != nil {
		return err
	}
	sid := r.Session
	defer rc.must(serve.Request{Op: "kill", Session: sid})
	var sess *serve.Session
	var addr string
	for i, srv := range w.f.workers {
		if s, err := srv.Manager().Get(sid); err == nil {
			sess, addr = s, w.f.addrs[i]
		}
	}
	if sess == nil {
		return fmt.Errorf("probe: session %s on no worker", sid)
	}
	dc, err := dialWire(addr)
	if err != nil {
		return err
	}
	defer dc.close()
	const line = "info filters"
	req := serve.Request{Op: "exec", Session: sid, Line: line}
	var in, direct, routed []float64
	for i := 0; i < 200; i++ {
		t := time.Now()
		if _, err := sess.Exec(line); err != nil {
			return err
		}
		in = append(in, float64(time.Since(t).Microseconds()))
		t = time.Now()
		if _, err := dc.must(req); err != nil {
			return err
		}
		direct = append(direct, float64(time.Since(t).Microseconds()))
		t = time.Now()
		if _, err := rc.must(req); err != nil {
			return err
		}
		routed = append(routed, float64(time.Since(t).Microseconds()))
	}
	pi, pd, pr := summarize(in).P50, summarize(direct).P50, summarize(routed).P50
	l.set("serve.exec_us", pi)
	l.set("serve.wire_us", pd-pi)
	l.set("router.hop_us", pr-pd)
	return nil
}

// probeMigration exports a scripted session from one undrained worker
// and imports it on the other over direct worker connections, several
// times.
func (w *fleetWL) probeMigration(l *ledger) error {
	var live []string
	for i, addr := range w.f.addrs {
		if fmt.Sprintf("w%d", i+1) != w.drained {
			live = append(live, addr)
		}
	}
	src, dst := live[0], live[1]
	sc, err := dialWire(src)
	if err != nil {
		return err
	}
	defer sc.close()
	dc, err := dialWire(dst)
	if err != nil {
		return err
	}
	defer dc.close()
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("probe-%d", i)
		if _, err := sc.must(serve.Request{Op: "new", Session: id, Params: &w.params}); err != nil {
			return err
		}
		for _, line := range w.script {
			if _, err := sc.must(serve.Request{Op: "exec", Session: id, Line: line}); err != nil {
				return err
			}
		}
		t := time.Now()
		ex, err := sc.must(serve.Request{Op: "export", Session: id})
		if err != nil {
			return err
		}
		l.sample("serve.export_ms", ms(time.Since(t)))
		l.check("ckpt.container_bytes", uint64(len(ex.Container)))
		t = time.Now()
		if _, err := dc.must(serve.Request{Op: "import", Session: id, Params: ex.Params, Container: ex.Container}); err != nil {
			return err
		}
		l.sample("serve.import_ms", ms(time.Since(t)))
		if _, err := dc.must(serve.Request{Op: "kill", Session: id}); err != nil {
			return err
		}
	}
	return nil
}

func counterMap(vals []obs.MetricValue) map[string]float64 {
	m := make(map[string]float64, len(vals))
	for _, v := range vals {
		m[v.Name] = v.Value
	}
	return m
}

// close tears the fleet down and waits for its serve loops.
func (w *fleetWL) close() {
	for _, c := range []*wireClient{w.client, w.admin} {
		if c != nil {
			c.close()
		}
	}
	w.client, w.admin, w.sessions = nil, nil, nil
	if w.f == nil {
		return
	}
	_ = w.f.r.Close()
	for _, srv := range w.f.workers {
		_ = srv.Close()
	}
	w.f.served.Wait()
	w.f = nil
}
