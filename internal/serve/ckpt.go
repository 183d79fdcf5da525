// Crash-safe session supervision (DESIGN §13). Every session owns a
// ckpt.Manager that journals its state-mutating command lines and
// captures replay-verifiable checkpoints at command boundaries. When a
// command crashes the session — a contained `fault panic` surfacing as
// a crash stop, or a genuine Go panic unwinding the command closure —
// the supervisor rebuilds the stack from the last good checkpoint
// (rebuild + journal replay + byte-for-byte verification), disarms the
// pending kill-class faults so the recovered timeline cannot die the
// same way, re-executes the interrupted command, and tells attached
// clients via a "session-recovered" event. Restarts are budgeted with
// exponential backoff; a session that exhausts the budget closes with
// reason "crash-loop".
package serve

import (
	"fmt"
	"time"

	"dfdbg/internal/ckpt"
	"dfdbg/internal/cli"
	"dfdbg/internal/obs"
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

// supervisor owns one session's checkpoint manager, auto-checkpoint
// policy and crash recovery. It lives on the session goroutine and is
// not goroutine-safe.
type supervisor struct {
	s   *Session
	mgr *ckpt.Manager
	cur *stack.Stack // the live stack (save captures it)

	every    int           // auto-checkpoint each N journaled commands (0 = off)
	interval time.Duration // auto-checkpoint after this much wall time (0 = off)
	restarts int           // crash recoveries left

	swap       *stack.Stack // staged by a restore-class hook, adopted by the loop
	since      int          // journaled commands since the last checkpoint
	lastAt     time.Time
	recoveries int // recoveries performed (drives the backoff)
}

func newSupervisor(s *Session, r stack.Recipe) *supervisor {
	sup := &supervisor{
		s:        s,
		every:    s.mgr.ckptEvery,
		interval: s.mgr.ckptInterval,
		restarts: s.mgr.restartLimit,
		lastAt:   time.Now(),
	}
	sup.mgr = ckpt.NewManager(r.Target)
	return sup
}

// wire makes st the live stack and installs the checkpoint commands on
// its CLI. Restore-class hooks stage the rebuilt stack in sup.swap; the
// session loop adopts it after the command's reply went out, so the
// client that issued `restore` gets its answer from the old world and
// every later command runs on the new one.
func (sup *supervisor) wire(st *stack.Stack) {
	sup.cur = st
	st.CLI.Ckpt = &cli.CkptHooks{
		Save: func(label string) (ckpt.Info, error) { return sup.save(label) },
		List: func() []ckpt.Info { return sup.mgr.List() },
		Restore: func(id int) (ckpt.Info, error) {
			cp := sup.mgr.Latest()
			if id != 0 {
				cp = sup.mgr.Find(id)
			}
			if cp == nil {
				return ckpt.Info{}, fmt.Errorf("no such checkpoint (see `checkpoints')")
			}
			return sup.restore(cp)
		},
		ReverseStep: func() error {
			t, err := sup.mgr.ReverseStep()
			if err != nil {
				return err
			}
			sup.stage(t.(*stack.Stack), 0)
			return nil
		},
		ReverseContinue: func() (ckpt.Info, error) {
			cp := sup.mgr.Latest()
			if cp == nil {
				return ckpt.Info{}, fmt.Errorf("no checkpoint to reverse-continue to")
			}
			return sup.restore(cp)
		},
	}
}

// boot takes the session's birth checkpoint so crash recovery always
// has a floor to restore to. Best effort: a session whose state cannot
// be captured still serves, it just cannot recover from crashes.
func (sup *supervisor) boot(st *stack.Stack) {
	sup.wire(st)
	_, _ = sup.save("boot")
}

// note journals a successfully executed state-mutating command line
// (journal-after-success: a line that errored or panicked is never
// noted, so replay cannot re-crash).
func (sup *supervisor) note(line string) {
	sup.mgr.Note(line)
	sup.since++
}

// save captures a checkpoint of the live stack and marks it in the
// event stream (the state encoder skips KCheckpoint, so the mark never
// perturbs replay verification).
func (sup *supervisor) save(label string) (ckpt.Info, error) {
	st := sup.cur
	cp, err := sup.mgr.Capture(st, label, uint64(st.K.Now()), time.Now().UnixNano())
	if err != nil {
		return ckpt.Info{}, err
	}
	sup.since = 0
	sup.lastAt = time.Now()
	sup.s.mgr.checkpointBytes.Set(int64(len(cp.State)))
	st.Rec.Record(obs.Event{At: uint64(st.K.Now()), Kind: obs.KCheckpoint, Arg: int64(cp.ID)})
	return cp.Info(), nil
}

// maybeAuto checkpoints at a command boundary when the configured
// command-count or wall-clock trigger fires. Only worlds that changed
// since the last checkpoint are captured.
func (sup *supervisor) maybeAuto() {
	if sup.since == 0 {
		return
	}
	if (sup.every > 0 && sup.since >= sup.every) ||
		(sup.interval > 0 && time.Since(sup.lastAt) >= sup.interval) {
		_, _ = sup.save("auto")
	}
}

// restore rebuilds from cp with replay verification and stages the new
// stack for adoption.
func (sup *supervisor) restore(cp *ckpt.Checkpoint) (ckpt.Info, error) {
	t, err := sup.mgr.Restore(cp)
	if err != nil {
		return ckpt.Info{}, err
	}
	sup.stage(t.(*stack.Stack), cp.ID)
	return cp.Info(), nil
}

// stage parks a rebuilt stack for the loop to adopt and marks the
// restore in the new world's event stream.
func (sup *supervisor) stage(ns *stack.Stack, cpID int) {
	ns.Rec.Record(obs.Event{At: uint64(ns.K.Now()), Kind: obs.KRestore, Arg: int64(cpID)})
	sup.swap = ns
}

// adopt returns the staged stack, if any, and clears the slot.
func (sup *supervisor) adopt() *stack.Stack {
	ns := sup.swap
	sup.swap = nil
	return ns
}

// recoverFrom is the crash path: restore the last good checkpoint,
// disarm pending kill-class faults, re-execute the interrupted line
// when its cause was disarmed, and announce the recovery. Returns the
// recovered stack, or nil when the restart budget is exhausted, no
// checkpoint exists, or the restore itself failed (divergence) — the
// caller then closes the session.
func (sup *supervisor) recoverFrom(line, cause string) *stack.Stack {
	if sup.restarts <= 0 {
		return nil
	}
	sup.restarts--
	sup.backoff()
	cp := sup.mgr.Latest()
	if cp == nil {
		return nil
	}
	t, err := sup.mgr.Restore(cp)
	if err != nil {
		return nil
	}
	ns := t.(*stack.Stack)
	disarmed := sup.disarmCrashFaults(ns)
	ns.Rec.Record(obs.Event{At: uint64(ns.K.Now()), Kind: obs.KRestore, Arg: int64(cp.ID)})
	sup.s.mgr.sessionsRecovered.Inc()
	info := cp.Info()
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
		res := ns.CLI.Dispatch(line)
		if res.Err == nil && ckpt.Journaled(line) {
			sup.note(line)
		}
		if res.Stop != nil {
			sup.s.publish(Event{Event: "stop", Session: sup.s.ID, Stop: res.Stop})
		}
	}
	return ns
}

// disarmCrashFaults neutralizes every pending kill-class fault (panic,
// fail-pe) on the restored stack. The disarms run as journaled CLI
// commands, so later replays reproduce the recovered timeline exactly.
func (sup *supervisor) disarmCrashFaults(ns *stack.Stack) int {
	inj := ns.K.Faults()
	if inj == nil {
		return 0
	}
	n := 0
	for _, spec := range inj.PendingCrashSpecs() {
		line := "fault disarm " + spec
		if res := ns.CLI.Dispatch(line); res.Err == nil {
			sup.note(line)
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
