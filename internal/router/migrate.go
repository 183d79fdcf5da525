package router

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dfdbg/internal/serve"
)

// DrainWorker empties w by live-migrating every session it owns onto
// rendezvous-chosen peers. The worker first stops admitting sessions
// (the "drain" wire op), then each session is moved one at a time:
// export at a command boundary, import with replay verification on the
// best eligible peer, retrying down the rendezvous ranking if a peer
// dies mid-transfer. It returns the ids that moved. Idempotent per
// worker: a second call while a drain is running returns nil.
func (r *Router) DrainWorker(w *worker) []string {
	if !w.beginDrain() {
		return nil
	}
	if ctl := w.ctlConn(); ctl != nil {
		// Best effort: a worker that initiated the drain itself (SIGTERM)
		// is already refusing admission.
		ctl.RoundTrip(serve.Request{Op: "drain"}, w.pingTimeout())
	}
	// Loop until the worker owns nothing: a concurrent migration that
	// ranked this worker just before it started draining can still land
	// one session after the first snapshot. Sessions move a bounded
	// batch at a time — each transfer waits out the session's in-flight
	// command and replays its journal on the peer, so a serial drain of
	// a loaded worker would take minutes, not seconds.
	var mu sync.Mutex
	var moved []string
	for pass := 0; pass < 8; pass++ {
		routes := r.routesOn(w)
		if len(routes) == 0 {
			break
		}
		progress := false
		sem := make(chan struct{}, drainConcurrency)
		var wg sync.WaitGroup
		for _, rt := range routes {
			wg.Add(1)
			sem <- struct{}{}
			go func(rt *route) {
				defer wg.Done()
				defer func() { <-sem }()
				if err := r.migrate(rt, w); err == nil {
					mu.Lock()
					moved = append(moved, rt.id)
					progress = true
					mu.Unlock()
				}
			}(rt)
		}
		wg.Wait()
		if !progress {
			break
		}
	}
	sort.Strings(moved)
	return moved
}

// drainConcurrency bounds how many sessions a drain transfers at once.
const drainConcurrency = 8

// migrate moves one session off src. It holds the route's write lock
// for the whole transfer: in-flight commands (read lock holders)
// complete on the source first, commands issued during the move block
// and then land on the destination, and attached clients observe a
// single "session-migrated" event — never a dropped response.
func (r *Router) migrate(rt *route, src *worker) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.w != src || rt.sc == nil {
		return fmt.Errorf("router: %s already moved", rt.id)
	}

	// Export seals the session — journal since birth plus state blob —
	// and retires the source copy, so at most one live instance of the
	// session ever exists.
	resp, err := rt.sc.RoundTrip(serve.Request{Op: "export", Session: rt.id}, 0)
	if err != nil {
		// The worker died before the container left it: the session is
		// gone (its next incarnation, if any, is the worker's own
		// crash-recovery problem).
		r.sessionsLost.Inc()
		r.dropRoute(rt, "worker-lost")
		return fmt.Errorf("router: export %s: %w", rt.id, err)
	}
	if !resp.OK {
		return fmt.Errorf("router: export %s: %s", rt.id, resp.Error)
	}
	params := serve.SessionParams{}
	if resp.Params != nil {
		params = *resp.Params
	}
	container := resp.Container
	oldSC := rt.sc
	rt.sc = nil

	// The container is now the session's only copy — the last good
	// checkpoint. Try peers best-first; a destination dying mid-import
	// just means the next one gets the same container. A round with no
	// willing peer is retried after a health-check interval: a worker
	// that misses one ping under load (a transient blip, not death) must
	// delay the migration, never lose the session.
	var lastErr error
	for round := 0; round < migrateRetryRounds; round++ {
		if round > 0 && !r.sleepDone(r.opts.PingInterval) {
			break
		}
		for _, dst := range r.ranked(rt.id, src) {
			sc, err := r.dialSession(dst, rt)
			if err != nil {
				lastErr = err
				continue
			}
			resp, err := sc.RoundTrip(serve.Request{
				Op:        "import",
				Session:   rt.id,
				Params:    &params,
				Container: container,
			}, 0)
			if err != nil || !resp.OK {
				if err == nil {
					err = fmt.Errorf("%s", resp.Error)
				}
				sc.Close(fmt.Errorf("router: import %s failed", rt.id))
				lastErr = err
				continue
			}
			rt.w = dst
			rt.sc = sc
			oldSC.Close(fmt.Errorf("router: session %s migrated", rt.id))
			r.migrations.Inc()
			r.migrationBytes.Add(uint64(len(container)))
			rt.publish(serve.Event{
				Event:   "session-migrated",
				Session: rt.id,
				Reason:  src.nameOf() + " -> " + dst.nameOf(),
			})
			return nil
		}
	}

	// No eligible peer could take the session. It no longer runs
	// anywhere; tell the subscribers the truth.
	if lastErr == nil {
		lastErr = fmt.Errorf("no eligible peer")
	}
	r.sessionsLost.Inc()
	r.dropRoute(rt, "migration-failed: "+lastErr.Error())
	oldSC.Close(fmt.Errorf("router: session %s lost", rt.id))
	return fmt.Errorf("router: migrate %s: %w", rt.id, lastErr)
}

// migrateRetryRounds bounds how many times migrate re-ranks the fleet
// looking for a destination before declaring the session lost.
const migrateRetryRounds = 8

// sleepDone waits d or until the router closes; false means closed.
func (r *Router) sleepDone(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-r.done:
		return false
	case <-t.C:
		return true
	}
}
