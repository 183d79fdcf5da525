// Crash-safe session supervision (DESIGN §13). Every session drives
// its world through a stack.Session, which journals the state-mutating
// command lines and captures replay-verifiable checkpoints; the
// supervisor adds serve's policy on top. It checkpoints at command
// boundaries, and when a command crashes the session — a contained
// `fault panic` surfacing as a crash stop, or a genuine Go panic
// unwinding the command closure — it rebuilds the world from the last
// good checkpoint (rebuild + journal replay + byte-for-byte
// verification), disarms the pending kill-class faults so the recovered
// timeline cannot die the same way, re-executes the interrupted
// command, and tells attached clients via a "session-recovered" event.
// Restarts are budgeted with exponential backoff; a session that
// exhausts the budget closes with reason "crash-loop".
package serve

import (
	"fmt"
	"time"

	"dfdbg/internal/ckpt"
	"dfdbg/internal/stack"
)

// Supervision defaults (override via Options / SetCheckpointPolicy).
const (
	defaultCkptEvery    = 8
	defaultCkptInterval = 30 * time.Second
	defaultRestartLimit = 3
)

// panicReply is the out-of-band reply for a command whose closure
// panicked: do() converts it to an error for the waiting client, and
// the session loop runs crash recovery instead of dying.
type panicReply struct{ err error }

// runShielded executes one command closure, converting a panic into a
// panicReply so a crashing command kills neither the session goroutine
// nor the client blocked on the reply channel.
func runShielded(cmd sessionCmd, st *stack.Stack) (out any) {
	defer func() {
		if r := recover(); r != nil {
			what := cmd.line
			if what == "" {
				what = "internal query"
			}
			out = panicReply{err: fmt.Errorf("serve: %q panicked: %v", what, r)}
		}
	}()
	return cmd.run(st)
}

// supervisor is one session's serve policy on top of its stack.Session
// driver: auto-checkpoints, crash recovery with fault disarming, the
// restart budget and its backoff. It lives on the session goroutine and
// is not goroutine-safe.
type supervisor struct {
	s    *Session
	sess *stack.Session

	every    int           // auto-checkpoint each N journaled commands (0 = off)
	interval time.Duration // auto-checkpoint after this much wall time (0 = off)
	restarts int           // crash recoveries left

	reported   *ckpt.Checkpoint // the capture checkpoint_bytes last reported
	recoveries int              // recoveries performed (drives the backoff)
}

func newSupervisor(s *Session, r stack.Recipe) *supervisor {
	return &supervisor{
		s:        s,
		sess:     stack.NewSession(r),
		every:    s.mgr.ckptEvery,
		interval: s.mgr.ckptInterval,
		restarts: s.mgr.restartLimit,
	}
}

// settle runs at every command boundary: it reports the size of a
// fresh capture and takes an auto-checkpoint when the command-count or
// wall-clock trigger fires. Only worlds that changed since the last
// capture are captured.
func (sup *supervisor) settle() {
	n, cp := sup.sess.Pending()
	if n > 0 && ((sup.every > 0 && n >= sup.every) ||
		(sup.interval > 0 && (cp == nil || time.Since(time.Unix(0, cp.Wall)) >= sup.interval))) {
		cp, _ = sup.sess.Checkpoint("auto")
	}
	if cp != nil && cp != sup.reported {
		sup.reported = cp
		sup.s.mgr.checkpointBytes.Set(int64(len(cp.State)))
	}
}

// recoverFrom is the crash path: restore the last good checkpoint,
// disarm pending kill-class faults, re-execute the interrupted line
// when its cause was disarmed, and announce the recovery. It reports
// false when the restart budget is exhausted, no checkpoint exists, or
// the restore itself failed (divergence) — the caller then closes the
// session.
func (sup *supervisor) recoverFrom(line, cause string) bool {
	if sup.restarts <= 0 {
		return false
	}
	sup.restarts--
	sup.backoff()
	info, err := sup.sess.Restore(0)
	if err != nil {
		return false
	}
	sup.s.adopt()
	disarmed := sup.disarmCrashFaults()
	sup.s.mgr.sessionsRecovered.Inc()
	sup.s.publish(Event{
		Event:      "session-recovered",
		Session:    sup.s.ID,
		Reason:     cause,
		Checkpoint: &info,
	})
	// Re-run the interrupted command on the recovered world only when a
	// crash fault was disarmed: an induced panic cannot recur, while an
	// organic one (a decoder bug, say) would just crash again.
	if line != "" && disarmed > 0 {
		if res := sup.sess.Exec(line); res.Stop != nil {
			sup.s.publish(Event{Event: "stop", Session: sup.s.ID, Stop: res.Stop})
		}
	}
	return true
}

// disarmCrashFaults neutralizes every pending kill-class fault (panic,
// fail-pe) on the restored world. The disarms run as journaled CLI
// commands, so later replays reproduce the recovered timeline exactly.
func (sup *supervisor) disarmCrashFaults() int {
	inj := sup.sess.Live().K.Faults()
	if inj == nil {
		return 0
	}
	n := 0
	for _, spec := range inj.PendingCrashSpecs() {
		if res := sup.sess.Exec("fault disarm " + spec); res.Err == nil {
			n++
		}
	}
	return n
}

// backoff sleeps before a restart: 50ms doubling per recovery, capped
// at 2s, none before the first.
func (sup *supervisor) backoff() {
	if sup.recoveries > 0 {
		d := 50 * time.Millisecond << uint(sup.recoveries-1)
		if d > 2*time.Second {
			d = 2 * time.Second
		}
		time.Sleep(d)
	}
	sup.recoveries++
}
