package stack

import (
	"fmt"
	"time"

	"dfdbg/internal/ckpt"
	"dfdbg/internal/cli"
	"dfdbg/internal/obs"
)

// Session drives one live world under a checkpoint manager (DESIGN
// §13). It is the one implementation of the owner side of checkpoint,
// restore and reverse execution: the dfdbg REPL, a dfserve session and
// the chaos gauntlet each drive their worlds through it and add only
// their own policy on top.
//
// Its rules:
//   - journal-after-success: Exec journals a line only when it
//     succeeded and ckpt.Journaled accepts it, so replay cannot
//     re-crash or re-fail;
//   - the checkpoint commands of every world it makes live run through
//     its hooks (cli.CkptHooks);
//   - a restore-class command stages the rebuilt world, and Adopt makes
//     it live only after the command's reply was produced by the old
//     world;
//   - every capture marks the live world's event stream (KCheckpoint)
//     and every rebuilt world is marked as restored (KRestore); the
//     state encoder skips both kinds, so the marks never move a digest.
//
// A Session is not goroutine-safe: its owner serializes every call,
// and every kernel access happens on the owner's goroutine.
type Session struct {
	mgr    *ckpt.Manager
	boot   Recipe
	live   *Stack
	staged *Stack
	last   *ckpt.Checkpoint // the latest capture, or the adopted container
	since  int              // lines journaled since last
}

// NewSession returns a driver for worlds built from r; Boot builds the
// first one. Rebuilds run no pre-run pass: its warnings print once,
// when the first world boots.
func NewSession(r Recipe) *Session {
	rebuild := r
	rebuild.PreRun = nil
	return &Session{mgr: ckpt.NewManager(rebuild.Target), boot: r}
}

// Boot builds the first live world: fresh from the recipe when from is
// nil, else by adopting the migrated-in container from (rebuild,
// journal replay, byte-compare; see ckpt.Manager.Adopt), which then
// stays as the session's recovery floor.
func (s *Session) Boot(from *ckpt.Checkpoint) error {
	if from == nil {
		st, err := s.boot.Build()
		if err != nil {
			return err
		}
		s.install(st)
		return nil
	}
	t, err := s.mgr.Adopt(from)
	if err != nil {
		return err
	}
	s.install(restored(t, from.ID))
	s.last = from
	return nil
}

// Live returns the live world (nil before Boot and after Close).
func (s *Session) Live() *Stack { return s.live }

// Manager returns the checkpoint manager: its journal and retained
// checkpoints.
func (s *Session) Manager() *ckpt.Manager { return s.mgr }

// Pending reports how many lines were journaled since the session's
// latest capture, and that capture: the container the session booted
// from until it captures one, nil before any.
func (s *Session) Pending() (int, *ckpt.Checkpoint) { return s.since, s.last }

// Exec dispatches line on the live world and journals it after
// success. A world a restore-class command staged stays staged: the
// result is the old world's reply, and Adopt swaps the new one in.
func (s *Session) Exec(line string) cli.Result {
	res := s.live.CLI.Dispatch(line)
	if res.Err == nil && ckpt.Journaled(line) {
		s.mgr.Note(line)
		s.since++
	}
	return res
}

// Checkpoint captures the live world, retains the checkpoint and marks
// it in the world's event stream.
func (s *Session) Checkpoint(label string) (*ckpt.Checkpoint, error) {
	st := s.live
	cp, err := s.mgr.Capture(st, label, uint64(st.K.Now()), time.Now().UnixNano())
	if err != nil {
		return nil, err
	}
	s.last, s.since = cp, 0
	st.Rec.Record(obs.Event{At: uint64(st.K.Now()), Kind: obs.KCheckpoint, Arg: int64(cp.ID)})
	return cp, nil
}

// Restore rebuilds the world of checkpoint id (0: the latest) with
// replay verification and stages it for Adopt.
func (s *Session) Restore(id int) (ckpt.Info, error) {
	cp := s.mgr.Latest()
	if id != 0 {
		cp = s.mgr.Find(id)
	}
	if cp == nil {
		return ckpt.Info{}, fmt.Errorf("no such checkpoint (see `checkpoints')")
	}
	t, err := s.mgr.Restore(cp)
	if err != nil {
		return ckpt.Info{}, err
	}
	s.staged = restored(t, cp.ID)
	return cp.Info(), nil
}

// ReverseStep rebuilds the world as it was before the last control
// command and stages it for Adopt.
func (s *Session) ReverseStep() error {
	t, err := s.mgr.ReverseStep()
	if err != nil {
		return err
	}
	s.staged = restored(t, 0)
	return nil
}

// ReverseContinue restores the latest checkpoint.
func (s *Session) ReverseContinue() (ckpt.Info, error) {
	if s.mgr.Latest() == nil {
		return ckpt.Info{}, fmt.Errorf("no checkpoint to reverse-continue to")
	}
	return s.Restore(0)
}

// Adopt makes a staged world live and reports whether there was one.
// attach, when non-nil, sees the new world before the retired one shuts
// down, so an owner can repoint whatever reads the live world first.
func (s *Session) Adopt(attach func(*Stack)) bool {
	ns := s.staged
	if ns == nil {
		return false
	}
	s.staged = nil
	old := s.live
	s.install(ns)
	if attach != nil {
		attach(ns)
	}
	if old != nil {
		old.Shutdown()
	}
	return true
}

// Close shuts the live world (and a staged one) down. A closed session
// can be revived by Restore and Adopt.
func (s *Session) Close() {
	for _, st := range []*Stack{s.live, s.staged} {
		if st != nil {
			st.Shutdown()
		}
	}
	s.live, s.staged = nil, nil
}

// install makes st the live world and wires its checkpoint commands.
func (s *Session) install(st *Stack) {
	s.live = st
	st.CLI.Ckpt = &cli.CkptHooks{
		Save: func(label string) (ckpt.Info, error) {
			cp, err := s.Checkpoint(label)
			if err != nil {
				return ckpt.Info{}, err
			}
			return cp.Info(), nil
		},
		List:            s.mgr.List,
		Restore:         s.Restore,
		ReverseStep:     s.ReverseStep,
		ReverseContinue: s.ReverseContinue,
	}
}

// restored marks a world the manager rebuilt from checkpoint id (0: a
// reverse step past the last control command).
func restored(t ckpt.Target, id int) *Stack {
	st := t.(*Stack)
	st.Rec.Record(obs.Event{At: uint64(st.K.Now()), Kind: obs.KRestore, Arg: int64(id)})
	return st
}
