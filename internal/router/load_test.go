package router

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfdbg/internal/serve"
)

// TestFleetLoadMigration is the fleet acceptance gauntlet (ISSUE 10):
// many concurrent scripted h264 sessions spread across 3 workers by
// rendezvous placement, with two seeded drains fired mid-run — one
// third and two thirds of the way through the total command volume —
// so a large fraction of sessions live-migrate while their scripts are
// executing. Every per-session trace must be byte-identical to a solo
// run on an unmigrated worker, and every command must get its
// response. Run with -race in CI (the fleet-soak job); -short scales
// the session count down.
func TestFleetLoadMigration(t *testing.T) {
	nSessions := 100
	if testing.Short() {
		nSessions = 12
	}
	golden := goldenTrace(t, tinyParams)

	f := startFleet(t, 3, serve.Options{
		MaxSessions: nSessions + 4,
		MaxConns:    nSessions + 16,
	})

	totalCmds := int64(nSessions * len(fleetScript))
	var cmdCount atomic.Int64
	var drainOnce1, drainOnce2 sync.Once
	admin := dialWire(t, f.addr)
	var adminMu sync.Mutex
	var drainWG sync.WaitGroup
	var drainMoved atomic.Int64
	drain := func(worker string) {
		defer drainWG.Done()
		adminMu.Lock()
		defer adminMu.Unlock()
		r := admin.roundTrip(serve.Request{Op: "drain", Worker: worker})
		if !r.OK {
			t.Errorf("drain %s: %s", worker, r.Error)
			return
		}
		drainMoved.Add(int64(len(r.Sessions)))
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		p99src  []time.Duration
		nMoved  atomic.Int64
		nDropEv atomic.Int64
	)
	errs := make([]error, nSessions)
	traces := make([]string, nSessions)
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := dialWire(t, f.addr)
			r := cl.roundTrip(serve.Request{Op: "new", Params: tinyParams})
			if !r.OK {
				errs[i] = fmt.Errorf("new: %s", r.Error)
				return
			}
			sid := r.Session
			var b strings.Builder
			var lat []time.Duration
			for _, line := range fleetScript {
				start := time.Now()
				r := cl.roundTrip(serve.Request{Op: "exec", Session: sid, Line: line})
				lat = append(lat, time.Since(start))
				renderResp(&b, line, r)
				// Seeded drains: fire at 1/3 and 2/3 of the fleet-wide
				// command volume, from whichever session crosses the line.
				switch n := cmdCount.Add(1); {
				case n == totalCmds/3:
					drainOnce1.Do(func() { drainWG.Add(1); go drain("w1") })
				case n == 2*totalCmds/3:
					drainOnce2.Do(func() { drainWG.Add(1); go drain("w2") })
				}
			}
			traces[i] = b.String()
			mu.Lock()
			p99src = append(p99src, lat...)
			mu.Unlock()
			// Count this session's migrations and any backpressure drops.
			for {
				select {
				case ev := <-cl.events:
					switch ev.Event {
					case "session-migrated":
						nMoved.Add(1)
					case "dropped":
						nDropEv.Add(1)
					case "session-closed":
						errs[i] = fmt.Errorf("session closed mid-script: %s", ev.Reason)
					}
					continue
				default:
				}
				break
			}
		}(i)
	}
	wg.Wait()
	drainWG.Wait() // late scripts can finish before their worker's drain does

	for i := 0; i < nSessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if traces[i] != golden {
			t.Errorf("session %d trace diverged:\n%s", i, diffLine(golden, traces[i]))
		}
	}
	if f.r.migrations.Value() == 0 {
		t.Error("no migrations happened — seeded drains misfired")
	}
	if got := f.r.migrations.Value(); got != uint64(drainMoved.Load()) {
		t.Errorf("migrations_total = %d, drains reported %d moved", got, drainMoved.Load())
	}
	// Both drained workers must have been emptied; every session ends on
	// the surviving worker.
	for _, name := range []string{"w1", "w2"} {
		w := f.r.workerByName(name)
		if w == nil {
			t.Fatalf("no worker %s", name)
		}
		if n := len(f.r.routesOn(w)); n != 0 {
			t.Errorf("drained worker %s still owns %d sessions", name, n)
		}
	}
	if nDropEv.Load() > 0 {
		t.Errorf("%d clients saw dropped events under default queue depth", nDropEv.Load())
	}

	sort.Slice(p99src, func(a, b int) bool { return p99src[a] < p99src[b] })
	p99 := p99src[len(p99src)*99/100]
	t.Logf("fleet: %d sessions / 3 workers (%d sessions/host), %d commands, %d migrations (%d observed by clients), p99 exec latency %v",
		nSessions, nSessions/3, cmdCount.Load(), f.r.migrations.Value(), nMoved.Load(), p99)
}

// BenchmarkFleetExec measures one command round trip through the full
// proxy path: client conn -> router -> per-session worker conn ->
// session goroutine and back. CI gates it against BenchmarkDirectExec.
func BenchmarkFleetExec(b *testing.B) {
	benchExec(b, func(f *fleet) string { return f.addr })
}

// BenchmarkDirectExec is BenchmarkFleetExec with the client dialing one
// worker straight, bypassing the router: the denominator of the fleet
// gates (proxied over direct, and a migration in direct commands).
func BenchmarkDirectExec(b *testing.B) {
	benchExec(b, func(f *fleet) string { return f.waddrs[0] })
}

// benchExec times one exec round trip over six sessions created
// through the address addr picks in a three-worker fleet.
func benchExec(b *testing.B, addr func(*fleet) string) {
	f := startFleet(b, 3, serve.Options{})
	const nSessions = 6
	cl := dialWire(b, addr(f))
	sids := make([]string, nSessions)
	for i := range sids {
		r := cl.roundTrip(serve.Request{Op: "new", Params: tinyParams})
		if !r.OK {
			b.Fatalf("new: %s", r.Error)
		}
		sids[i] = r.Session
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := cl.roundTrip(serve.Request{Op: "exec", Session: sids[i%nSessions], Line: "info filters"})
		if !r.OK {
			b.Fatalf("exec: %s", r.Error)
		}
	}
}

// BenchmarkMigration measures one full live migration: export (capture
// + container encode + source teardown) + import on the peer (rebuild +
// journal replay + byte-compare verification) + route flip. CI gates it
// against BenchmarkDirectExec.
func BenchmarkMigration(b *testing.B) {
	f := startFleet(b, 2, serve.Options{})
	cl := dialWire(b, f.addr)
	r := cl.roundTrip(serve.Request{Op: "new", Params: tinyParams})
	if !r.OK {
		b.Fatalf("new: %s", r.Error)
	}
	sid := r.Session
	if r := cl.roundTrip(serve.Request{Op: "exec", Session: sid, Line: "continue"}); !r.OK {
		b.Fatalf("exec: %s", r.Error)
	}
	rt, ok := f.r.getRoute(sid)
	if !ok {
		b.Fatal("no route")
	}
	bytesBefore := f.r.migrationBytes.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.mu.RLock()
		src := rt.w
		rt.mu.RUnlock()
		if err := f.r.migrate(rt, src); err != nil {
			b.Fatalf("migrate %d: %v", i, err)
		}
	}
	b.StopTimer()
	delta := f.r.migrationBytes.Value() - bytesBefore
	b.ReportMetric(float64(delta)/float64(b.N), "container-bytes/op")
}
