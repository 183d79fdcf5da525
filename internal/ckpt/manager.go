package ckpt

import (
	"fmt"
)

// Target is the session-side surface the manager drives during restore.
// Implementations own a full kernel stack (sim + pedf + mach + obs).
type Target interface {
	// ReplayExec executes one journaled command line for effect. Replay
	// output is discarded; errors during replay of a line that
	// originally succeeded are a divergence and surface through the
	// post-replay state comparison.
	ReplayExec(line string)
	// CaptureState serializes the deterministic session state (the
	// chunked blob format — see CaptureStack).
	CaptureState() ([]byte, error)
	// Shutdown tears the stack down (kernel goroutines included).
	Shutdown()
}

// BuildFunc constructs a fresh Target from the session's birth recipe
// (same app, same parameters, same fault plan, same seed).
type BuildFunc func() (Target, error)

// DefaultLimit bounds retained checkpoints per session.
const DefaultLimit = 32

// Manager owns the command journal and checkpoint ring of one session.
// It is not goroutine-safe: the owner serializes access (in the
// program, the stack.Session driver that holds it).
type Manager struct {
	// Build rebuilds the session stack from birth. Required.
	Build BuildFunc
	// Limit caps retained checkpoints (oldest evicted first);
	// DefaultLimit when zero.
	Limit int

	journal []Entry
	cps     []*Checkpoint
	seq     int
}

// NewManager returns a manager for a session built by build.
func NewManager(build BuildFunc) *Manager { return &Manager{Build: build} }

// Note records a successfully executed, state-mutating command line.
// The caller (stack.Session.Exec) applies the journal-after-success
// policy: a line that panicked or errored is never noted, so replay
// cannot re-crash.
func (m *Manager) Note(line string) {
	m.journal = append(m.journal, Entry{Line: line, Ctl: Ctl(line)})
}

// Journal returns a copy of the live journal.
func (m *Manager) Journal() []Entry {
	return append([]Entry(nil), m.journal...)
}

// JournalLen returns the number of journaled commands since birth.
func (m *Manager) JournalLen() int { return len(m.journal) }

// Capture snapshots the target's state with the current journal
// attached and retains the checkpoint.
func (m *Manager) Capture(t Target, label string, timeNS uint64, wall int64) (*Checkpoint, error) {
	state, err := t.CaptureState()
	if err != nil {
		return nil, fmt.Errorf("ckpt: capture: %w", err)
	}
	m.seq++
	cp := &Checkpoint{
		ID:      m.seq,
		Label:   label,
		TimeNS:  timeNS,
		Wall:    wall,
		Journal: append([]Entry(nil), m.journal...),
		State:   state,
	}
	m.cps = append(m.cps, cp)
	limit := m.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	if len(m.cps) > limit {
		m.cps = append(m.cps[:0:0], m.cps[len(m.cps)-limit:]...)
	}
	return cp, nil
}

// Latest returns the most recent checkpoint, or nil.
func (m *Manager) Latest() *Checkpoint {
	if len(m.cps) == 0 {
		return nil
	}
	return m.cps[len(m.cps)-1]
}

// Find returns the checkpoint with the given ID, or nil.
func (m *Manager) Find(id int) *Checkpoint {
	for _, cp := range m.cps {
		if cp.ID == id {
			return cp
		}
	}
	return nil
}

// List summarizes retained checkpoints, oldest first.
func (m *Manager) List() []Info {
	out := make([]Info, len(m.cps))
	for i, cp := range m.cps {
		out[i] = cp.Info()
	}
	return out
}

// replay rebuilds a fresh target and replays journal over it.
func (m *Manager) replay(journal []Entry) (Target, error) {
	if m.Build == nil {
		return nil, fmt.Errorf("ckpt: manager has no Build recipe")
	}
	t, err := m.Build()
	if err != nil {
		return nil, fmt.Errorf("ckpt: rebuild: %w", err)
	}
	for _, e := range journal {
		t.ReplayExec(e.Line)
	}
	return t, nil
}

// Restore rebuilds a fresh stack, replays the checkpoint's journal, and
// verifies the replayed state byte-for-byte against the checkpoint's
// blob. On success the live journal is rewound to the checkpoint and
// checkpoints from the discarded future are dropped; the caller must
// shut down the old stack and adopt the returned one. On divergence the
// fresh stack is torn down and a *DivergenceError is returned.
func (m *Manager) Restore(cp *Checkpoint) (Target, error) {
	if cp == nil {
		return nil, fmt.Errorf("ckpt: no checkpoint to restore")
	}
	t, err := m.replay(cp.Journal)
	if err != nil {
		return nil, err
	}
	state, err := t.CaptureState()
	if err != nil {
		t.Shutdown()
		return nil, fmt.Errorf("ckpt: verify capture: %w", err)
	}
	if err := Diff(cp.State, state); err != nil {
		t.Shutdown()
		return nil, err
	}
	m.rewind(cp.Journal)
	return t, nil
}

// Adopt restores a checkpoint that was captured by some other manager
// (a migrated-in container): the usual rebuild + replay + byte-compare
// discipline applies, and on success the container is retained as this
// manager's recovery floor with its identity intact, with the id
// sequence advanced past it so later captures stay monotonic.
func (m *Manager) Adopt(cp *Checkpoint) (Target, error) {
	t, err := m.Restore(cp)
	if err != nil {
		return nil, err
	}
	if cp.ID > m.seq {
		m.seq = cp.ID
	}
	m.cps = append(m.cps, cp)
	return t, nil
}

// rewind truncates the live journal to the restored prefix and drops
// checkpoints that belong to the discarded future.
func (m *Manager) rewind(journal []Entry) {
	m.journal = append(m.journal[:0:0], journal...)
	kept := m.cps[:0]
	for _, cp := range m.cps {
		if isPrefix(cp.Journal, m.journal) {
			kept = append(kept, cp)
		}
	}
	m.cps = kept
}

func isPrefix(p, full []Entry) bool {
	if len(p) > len(full) {
		return false
	}
	for i, e := range p {
		if full[i] != e {
			return false
		}
	}
	return true
}

// ReverseStep undoes the most recent control-flow command: the journal
// is truncated to just before its last Ctl entry (state-mutating
// commands issued after it are discarded with it — they belong to the
// abandoned future) and a fresh stack is rebuilt by replaying the
// truncated journal. When a retained checkpoint matches the truncated
// journal exactly, the replayed state is verified against it.
func (m *Manager) ReverseStep() (Target, error) {
	last := -1
	for i := len(m.journal) - 1; i >= 0; i-- {
		if m.journal[i].Ctl {
			last = i
			break
		}
	}
	if last < 0 {
		return nil, fmt.Errorf("ckpt: nothing to reverse: no control command in the journal")
	}
	target := append([]Entry(nil), m.journal[:last]...)
	for _, cp := range m.cps {
		if len(cp.Journal) == len(target) && isPrefix(cp.Journal, target) {
			return m.Restore(cp)
		}
	}
	t, err := m.replay(target)
	if err != nil {
		return nil, err
	}
	m.rewind(target)
	return t, nil
}

// ReverseContinue restores the most recent checkpoint (with full replay
// verification), the reverse analogue of continue-to-last-stop.
func (m *Manager) ReverseContinue() (Target, error) {
	cp := m.Latest()
	if cp == nil {
		return nil, fmt.Errorf("ckpt: no checkpoint to reverse-continue to")
	}
	return m.Restore(cp)
}
