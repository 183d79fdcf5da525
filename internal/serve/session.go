package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dfdbg/internal/ckpt"
	"dfdbg/internal/cli"
	"dfdbg/internal/h264"
	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
	"dfdbg/internal/stack"
	"dfdbg/internal/web"
)

// Errors returned by the session layer and rendered onto the wire.
var (
	ErrSessionLimit  = errors.New("serve: session limit reached")
	ErrSessionClosed = errors.New("serve: session closed")
	ErrNoSession     = errors.New("serve: no such session")
	ErrDraining      = errors.New("serve: worker draining")
	ErrDuplicateID   = errors.New("serve: session id already in use")
)

// subscriber receives a session's asynchronous events. Implementations
// must not block: the client layer queues with drop-oldest semantics.
type subscriber interface {
	Deliver(Event)
}

// Manager hosts the concurrent debug sessions behind one server:
// creation against a session limit, lookup, listing, kill, and idle
// reaping. Each session's kernel is owned by that session's goroutine;
// the manager never touches simulation state.
type Manager struct {
	maxSessions int
	idleTimeout time.Duration

	// session supervision policy (SetCheckpointPolicy)
	ckptEvery    int
	ckptInterval time.Duration
	restartLimit int

	// name is the worker's fleet name (SetName); non-empty names prefix
	// generated session ids so two workers never mint the same id.
	name     string
	draining atomic.Bool

	mu       sync.Mutex
	sessions map[string]*Session
	seq      int

	reg               *obs.Registry
	sessionsOpened    *obs.Counter
	sessionsReaped    *obs.Counter
	sessionsRecovered *obs.Counter
	commandsTotal     *obs.Counter
	eventsDropped     *obs.Counter
	checkpointBytes   *obs.Gauge
}

// NewManager returns a manager admitting up to maxSessions concurrent
// sessions and reaping sessions idle for longer than idleTimeout
// (0 disables reaping). Its metrics registry carries the server-level
// gauges and counters.
func NewManager(maxSessions int, idleTimeout time.Duration) *Manager {
	m := &Manager{
		maxSessions: maxSessions,
		idleTimeout: idleTimeout,
		sessions:    make(map[string]*Session),
		reg:         obs.NewRegistry(),
	}
	m.reg.GaugeFunc("sessions_active", "debug sessions currently hosted",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.sessions))
		})
	m.sessionsOpened = m.reg.Counter("sessions_opened_total", "debug sessions ever created")
	m.sessionsReaped = m.reg.Counter("sessions_reaped_total", "sessions closed by the idle reaper")
	m.sessionsRecovered = m.reg.Counter("sessions_recovered_total", "sessions auto-restored from a checkpoint after a crash")
	m.commandsTotal = m.reg.Counter("commands_total", "debugger commands dispatched across all sessions")
	m.eventsDropped = m.reg.Counter("events_dropped_total", "events lost to per-client backpressure")
	m.checkpointBytes = m.reg.Gauge("checkpoint_bytes", "size of the most recently captured checkpoint state blob")
	m.ckptEvery = defaultCkptEvery
	m.ckptInterval = defaultCkptInterval
	m.restartLimit = defaultRestartLimit
	return m
}

// SetCheckpointPolicy configures session supervision: auto-checkpoint
// every `every` journaled commands (<0 disables), auto-checkpoint when
// `interval` wall time passed since the last one (<0 disables), and
// allow up to restartLimit crash recoveries per session (<0 allows
// none). Zero values keep the defaults. Call before creating sessions.
func (m *Manager) SetCheckpointPolicy(every int, interval time.Duration, restartLimit int) {
	switch {
	case every < 0:
		m.ckptEvery = 0
	case every > 0:
		m.ckptEvery = every
	}
	switch {
	case interval < 0:
		m.ckptInterval = 0
	case interval > 0:
		m.ckptInterval = interval
	}
	switch {
	case restartLimit < 0:
		m.restartLimit = 0
	case restartLimit > 0:
		m.restartLimit = restartLimit
	}
}

// Registry returns the server-level metrics registry.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// IdleTimeout returns the configured idle-session timeout.
func (m *Manager) IdleTimeout() time.Duration { return m.idleTimeout }

// SetName records the worker's fleet name. Generated session ids are
// prefixed "name-" so ids stay globally unique across a fleet even for
// sessions created directly against one worker. Call before creating
// sessions.
func (m *Manager) SetName(name string) { m.name = name }

// Name returns the worker's fleet name ("" outside a fleet).
func (m *Manager) Name() string { return m.name }

// StartDrain puts the manager into draining mode: new sessions —
// created, imported, or migrated in — are refused with ErrDraining.
// Existing sessions keep serving until they are exported or closed.
func (m *Manager) StartDrain() { m.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (m *Manager) Draining() bool { return m.draining.Load() }

// Create builds a new session for params and starts its goroutine. It
// returns once the session booted (graph reconstructed, first prompt
// reachable) or failed to.
func (m *Manager) Create(params SessionParams) (*Session, error) {
	return m.CreateWithID("", params)
}

// CreateWithID builds a new session under an explicit id (the router
// assigns fleet-unique ids so placement can be computed from the id
// alone). An empty id generates one; a taken id fails with
// ErrDuplicateID.
func (m *Manager) CreateWithID(id string, params SessionParams) (*Session, error) {
	return m.newSession(id, params.withDefaults(), nil)
}

// Import revives a migrated session from its DFCK container under its
// original id: the stack is rebuilt from params, the container's
// journal is replayed, and the replayed state is byte-compared against
// the container's state blob (a restore that cannot prove equivalence
// fails with a DivergenceError instead of resuming a different world).
// The adopted container becomes the session's recovery floor.
func (m *Manager) Import(id string, params SessionParams, container []byte) (*Session, error) {
	cp, err := ckpt.Decode(container)
	if err != nil {
		return nil, fmt.Errorf("serve: import: %w", err)
	}
	if id == "" {
		return nil, fmt.Errorf("serve: import needs the session's id")
	}
	return m.newSession(id, params.withDefaults(), cp)
}

// newSession admits and boots one session (fresh or imported).
func (m *Manager) newSession(id string, params SessionParams, boot *ckpt.Checkpoint) (*Session, error) {
	if m.draining.Load() {
		return nil, ErrDraining
	}
	m.mu.Lock()
	if m.maxSessions > 0 && len(m.sessions) >= m.maxSessions {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d active)", ErrSessionLimit, len(m.sessions))
	}
	if id == "" {
		m.seq++
		id = fmt.Sprintf("s%d", m.seq)
		if m.name != "" {
			id = m.name + "-" + id
		}
	} else if _, taken := m.sessions[id]; taken {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	s := &Session{
		ID:     id,
		Params: params,
		mgr:    m,
		bootCP: boot,
		cmds:   make(chan sessionCmd),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		subs:   make(map[subscriber]struct{}),
	}
	m.sessions[s.ID] = s
	m.mu.Unlock()

	ready := make(chan error)
	go s.loop(ready)
	if err := <-ready; err != nil {
		m.remove(s)
		return nil, err
	}
	m.sessionsOpened.Inc()
	return s, nil
}

// Get returns the session with the given id.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	return s, nil
}

// List returns a snapshot of every hosted session, sorted by id.
func (m *Manager) List() []SessionInfo {
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	out := make([]SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.info())
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].ID) != len(out[j].ID) {
			return len(out[i].ID) < len(out[j].ID)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ReapIdle closes sessions that have been idle (no command executing,
// none arriving) for longer than the idle timeout. It returns how many
// were reaped. The server calls this periodically; tests call it
// directly.
//
// The busy/lastUsed atomics are only a cheap pre-filter: they can
// flicker idle for an instant between a command's reply and the
// supervisor settling after it, so the actual reap decision runs as a
// probe on the session goroutine itself. There the world is settled —
// the previous command's world swap and auto-checkpoint are done — and
// the idle clock is re-checked before the session tears down. A
// session mid-command never even receives the probe (the send would
// block, and blocked sends are skipped).
func (m *Manager) ReapIdle() int {
	if m.idleTimeout <= 0 {
		return 0
	}
	m.mu.Lock()
	var victims []*Session
	for _, s := range m.sessions {
		if !s.busy.Load() && time.Since(time.Unix(0, s.lastUsed.Load())) > m.idleTimeout {
			victims = append(victims, s)
		}
	}
	m.mu.Unlock()
	n := 0
	for _, s := range victims {
		if s.tryReap(m.idleTimeout) {
			n++
			m.sessionsReaped.Inc()
		}
	}
	return n
}

// CloseAll tears down every session (server shutdown).
func (m *Manager) CloseAll() {
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	for _, s := range sessions {
		s.Close("server-shutdown")
	}
}

// remove deletes s from the table (idempotent).
func (m *Manager) remove(s *Session) {
	m.mu.Lock()
	delete(m.sessions, s.ID)
	m.mu.Unlock()
}

// sessionCmd is one unit of work executed on the session goroutine. The
// closure receives the session's stack, so every kernel access happens
// on the goroutine that owns it. line carries the debugger command line
// for exec commands ("" for internal queries), which the supervisor
// re-executes after crash recovery.
type sessionCmd struct {
	line  string
	run   func(*stack.Stack) any
	reply chan any
}

// Session is one hosted debug session: a kernel, runtime and command
// dispatcher owned by a single goroutine, plus the bookkeeping the
// manager and the protocol layer read from outside.
type Session struct {
	ID     string
	Params SessionParams

	mgr  *Manager
	cmds chan sessionCmd
	stop chan struct{} // closed by Close: tear down
	done chan struct{} // closed by loop on exit

	// bootCP is the migrated-in container an imported session restores
	// from instead of a fresh build; cleared once adopted. sup is
	// the session's supervisor, whose driver holds the live world — set
	// by loop before the first command and only ever touched on the
	// session goroutine.
	bootCP *ckpt.Checkpoint
	sup    *supervisor

	closeOnce   sync.Once
	closeReason atomic.Value // string

	busy     atomic.Bool
	lastUsed atomic.Int64 // wall nanos of the last command
	ncmds    atomic.Uint64

	subMu sync.Mutex
	subs  map[subscriber]struct{}

	// kPtr/recPtr expose the session's kernel and recorder to the web
	// layer's lock-free paths (stall snapshots, the live event tap).
	// They are set by loop once the stack booted and cleared on
	// teardown; everything else still goes through do().
	kPtr   atomic.Pointer[sim.Kernel]
	recPtr atomic.Pointer[obs.Recorder]

	webMu sync.Mutex
	webBC *web.Broadcaster
}

// Recipe is the world every session boots. It runs batched under the
// rule every world follows: anything the client arms that can stop the
// run demotes every region first (DESIGN §12).
func (p SessionParams) Recipe() (stack.Recipe, error) {
	bug, err := h264.ParseBug(p.Bug)
	return stack.Recipe{
		Params:   h264.Params{W: p.W, H: p.H, QP: p.QP, Seed: p.Seed},
		Bug:      bug,
		Ring:     1 << 16,
		Payloads: true,
		Batch:    stack.BatchOn,
	}, err
}

// loop is the session goroutine: it builds the stack (so the kernel is
// born and dies on this goroutine) and serializes every command against
// it. Kernels never share state across sessions; the only cross-session
// paths are the process-wide interned filter programs (with their
// compiled code), the classification and analysis memos, the shared
// bitstreams, and the manager's atomic counters.
func (s *Session) loop(ready chan<- error) {
	defer close(s.done)
	r, err := s.Params.Recipe()
	if err == nil {
		s.sup = newSupervisor(s, r)
		// An imported session rebuilds, replays and byte-compares
		// against the migrated-in container (the same DivergenceError
		// discipline as a restore) and keeps it as the recovery floor.
		err = s.sup.sess.Boot(s.bootCP)
	}
	if err == nil {
		// Publish the world before Create returns, so a web stream
		// attached right after it finds the recorder to tap.
		st := s.sup.sess.Live()
		s.kPtr.Store(st.K)
		s.recPtr.Store(st.Rec)
	}
	ready <- err
	if err != nil {
		return
	}
	sup := s.sup
	if cp := s.bootCP; cp != nil {
		s.bootCP = nil
		sup.reported = cp
	} else {
		// The birth checkpoint, so crash recovery always has a floor.
		// Best effort: a session whose state cannot be captured still
		// serves, it just cannot recover from crashes.
		_, _ = sup.sess.Checkpoint("boot")
		sup.settle()
	}
	s.touch()
	for {
		select {
		case <-s.stop:
			s.teardown(s.reason())
			return
		case cmd := <-s.cmds:
			s.busy.Store(true)
			out := runShielded(cmd, sup.sess.Live())
			s.busy.Store(false)
			s.touch()
			cmd.reply <- out
			switch v := out.(type) {
			case cli.Result:
				s.ncmds.Add(1)
				s.mgr.commandsTotal.Inc()
				if v.Stop != nil {
					s.publish(Event{Event: "stop", Session: s.ID, Stop: v.Stop})
				}
				if v.Quit {
					s.markClosed("quit")
					s.teardown("quit")
					return
				}
				if s.adopt() {
					// A checkpoint command (restore, reverse-step,
					// reverse-continue) staged a rebuilt world.
					s.publish(Event{Event: "restored", Session: s.ID})
				} else if v.Stop != nil && v.Stop.Crash != nil {
					// A contained crash (induced `fault panic`) killed the
					// world: restore, disarm, re-execute.
					if !sup.recoverFrom(cmd.line, "crash: "+v.Stop.Crash.Cause) {
						s.markClosed("crash-loop")
						s.teardown("crash-loop")
						return
					}
				}
			case panicReply:
				// A genuine Go panic unwound the command closure; the old
				// world may be wedged. Recover or close.
				if !sup.recoverFrom(cmd.line, v.err.Error()) {
					s.markClosed("crash-loop")
					s.teardown("crash-loop")
					return
				}
			case exportReply:
				// The session's state left for a peer: this copy dies so
				// at most one live instance of the session ever exists.
				if v.err == nil {
					s.markClosed("migrated")
					s.teardown("migrated")
					return
				}
			case reapVerdict:
				// The idle reaper's probe, decided here on the session
				// goroutine where the journal and checkpoints are settled.
				if v.reap {
					s.markClosed("idle-timeout")
					s.teardown("idle-timeout")
					return
				}
			}
			sup.settle()
		}
	}
}

// adopt swaps in the world a checkpoint command or crash recovery
// staged, and reports whether there was one. Live web streams are
// closed (clients reattach against the new world) and the lock-free
// pointers flip before the driver shuts the retired world down, which
// hands its obs storage to the next world. Runs on the session
// goroutine.
func (s *Session) adopt() bool {
	return s.sup.sess.Adopt(func(ns *stack.Stack) {
		// Detach before flipping recPtr: the broadcaster's attach
		// closure resolves the recorder through recPtr, so this clears
		// the tap on the old recorder.
		s.webMu.Lock()
		if s.webBC != nil {
			s.webBC.Detach()
			s.webBC = nil
		}
		s.webMu.Unlock()
		s.kPtr.Store(ns.K)
		s.recPtr.Store(ns.Rec)
	})
}

// teardown unwinds the kernel's processes, removes the session and
// tells the subscribers. Runs on the session goroutine.
func (s *Session) teardown(reason string) {
	// Tear the web fan-out first: close live streams and remove the
	// recorder tap before the lock-free pointers go away.
	s.webMu.Lock()
	if s.webBC != nil {
		s.webBC.Detach()
	}
	s.webMu.Unlock()
	s.kPtr.Store(nil)
	s.recPtr.Store(nil)
	s.sup.sess.Close()
	s.mgr.remove(s)
	s.publish(Event{Event: "session-closed", Session: s.ID, Reason: reason})
	s.subMu.Lock()
	s.subs = make(map[subscriber]struct{})
	s.subMu.Unlock()
}

// markClosed records the close reason exactly once (and wins over a
// concurrent Close, which then finds the done channel already closing).
func (s *Session) markClosed(reason string) {
	s.closeOnce.Do(func() { s.closeReason.Store(reason) })
}

func (s *Session) reason() string {
	if r, ok := s.closeReason.Load().(string); ok {
		return r
	}
	return "closed"
}

// Close tears the session down and waits until its goroutine exited
// (kernel fully unwound). Safe to call from any goroutine, idempotent.
// If a command is executing, teardown happens after it completes.
func (s *Session) Close(reason string) {
	s.closeOnce.Do(func() {
		s.closeReason.Store(reason)
		close(s.stop)
	})
	<-s.done
}

// exportReply carries a migration container out of the session
// goroutine. On success the loop tears the session down right after
// the reply, so the exported container is the session's final word.
type exportReply struct {
	params    SessionParams
	container []byte
	err       error
}

// reapVerdict is the idle reaper's on-goroutine decision.
type reapVerdict struct{ reap bool }

// Export captures the session into a migration container — the full
// command journal since birth plus the current state blob, sealed in
// DFCK container form — and closes the session with reason "migrated".
// It runs at a command boundary on the session goroutine, so an
// in-flight command finishes (and is journaled) before the capture.
func (s *Session) Export() (SessionParams, []byte, error) {
	out, err := s.doCmd("", func(*stack.Stack) any {
		cp, err := s.sup.sess.Checkpoint("migrate")
		if err != nil {
			return exportReply{err: fmt.Errorf("serve: export: %w", err)}
		}
		return exportReply{params: s.Params, container: cp.Encode()}
	})
	if err != nil {
		return SessionParams{}, nil, err
	}
	rep := out.(exportReply)
	return rep.params, rep.container, rep.err
}

// tryReap asks the session goroutine to retire the session if it is
// still idle. The probe is sent non-blocking: a session that is busy —
// or already has a command queued — is skipped, never interrupted.
// It returns true once a reaped session has fully shut down.
func (s *Session) tryReap(timeout time.Duration) bool {
	cmd := sessionCmd{
		run: func(*stack.Stack) any {
			idle := time.Since(time.Unix(0, s.lastUsed.Load()))
			return reapVerdict{reap: idle > timeout}
		},
		reply: make(chan any, 1),
	}
	select {
	case s.cmds <- cmd:
	default:
		return false
	}
	out, _ := s.await(cmd)
	if v, ok := out.(reapVerdict); !ok || !v.reap {
		return false
	}
	// The loop retires the session right after a reap verdict; wait, so
	// a reaped session is gone from the manager when ReapIdle returns.
	<-s.done
	return true
}

// Exec dispatches one debugger command line on the session goroutine,
// journaled after success, and returns its structured result.
func (s *Session) Exec(line string) (cli.Result, error) {
	out, err := s.doCmd(line, func(*stack.Stack) any { return s.sup.sess.Exec(line) })
	if err != nil {
		return cli.Result{}, err
	}
	return out.(cli.Result), nil
}

// Checkpoints lists the session's retained checkpoints, oldest first.
func (s *Session) Checkpoints() ([]ckpt.Info, error) {
	out, err := s.do(func(*stack.Stack) any { return s.sup.sess.Manager().List() })
	if err != nil {
		return nil, err
	}
	return out.([]ckpt.Info), nil
}

// Complete returns command-line completions for a partial line.
func (s *Session) Complete(partial string) ([]string, error) {
	out, err := s.do(func(st *stack.Stack) any { return st.CLI.CompleteLine(partial) })
	if err != nil {
		return nil, err
	}
	return out.([]string), nil
}

// Metrics snapshots the session's own observability registry (the
// per-session kernel/runtime/debugger metrics, not the server's).
func (s *Session) Metrics() ([]obs.MetricValue, error) {
	out, err := s.do(func(st *stack.Stack) any { return st.Rec.Metrics.Snapshot() })
	if err != nil {
		return nil, err
	}
	return out.([]obs.MetricValue), nil
}

// do runs fn on the session goroutine.
func (s *Session) do(fn func(*stack.Stack) any) (any, error) { return s.doCmd("", fn) }

// doCmd runs fn on the session goroutine, tagged with the command line
// it executes (for crash recovery to re-execute). A panic inside fn comes
// back as an error, not a dead session.
func (s *Session) doCmd(line string, fn func(*stack.Stack) any) (any, error) {
	cmd := sessionCmd{line: line, run: fn, reply: make(chan any, 1)}
	select {
	case s.cmds <- cmd:
	case <-s.done:
		return nil, ErrSessionClosed
	}
	out, ok := s.await(cmd)
	if !ok {
		return nil, ErrSessionClosed
	}
	if pr, ok := out.(panicReply); ok {
		return nil, pr.err
	}
	return out, nil
}

// await waits for a queued command's reply; ok is false when the
// session closed without replying. The loop replies before it tears
// down, so a command that ended the session (quit, export, a reap
// verdict) has its reply buffered by the time done closes, and the
// reply must win: a select alone picks at random between the two.
func (s *Session) await(cmd sessionCmd) (out any, ok bool) {
	select {
	case out = <-cmd.reply:
		return out, true
	case <-s.done:
		select {
		case out = <-cmd.reply:
			return out, true
		default:
			return nil, false
		}
	}
}

// Subscribe registers sub for this session's events.
func (s *Session) Subscribe(sub subscriber) {
	s.subMu.Lock()
	s.subs[sub] = struct{}{}
	s.subMu.Unlock()
}

// Unsubscribe removes sub.
func (s *Session) Unsubscribe(sub subscriber) {
	s.subMu.Lock()
	delete(s.subs, sub)
	s.subMu.Unlock()
}

// publish fans an event out to the subscribers. Delivery must not
// block (subscribers queue with drop-oldest backpressure).
func (s *Session) publish(ev Event) {
	s.subMu.Lock()
	subs := make([]subscriber, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	s.subMu.Unlock()
	for _, sub := range subs {
		sub.Deliver(ev)
	}
}

func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

func (s *Session) info() SessionInfo {
	s.subMu.Lock()
	clients := len(s.subs)
	s.subMu.Unlock()
	return SessionInfo{
		ID:       s.ID,
		Params:   s.Params,
		Busy:     s.busy.Load(),
		Commands: s.ncmds.Load(),
		IdleNS:   time.Since(time.Unix(0, s.lastUsed.Load())).Nanoseconds(),
		Clients:  clients,
	}
}
