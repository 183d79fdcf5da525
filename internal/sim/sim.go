// Package sim implements a deterministic cooperative discrete-event
// simulation kernel, standing in for the SystemC simulator that hosts the
// P2012 functional platform model in the paper.
//
// The kernel runs an arbitrary number of processes (goroutines under a
// strict baton-passing protocol: exactly one process executes at a time)
// over a virtual clock. Processes block on Events or on the passage of
// simulated time. Scheduling is fully deterministic: runnable processes
// are dispatched in FIFO order of when they became runnable, and timed
// notifications fire in (time, sequence) order.
//
// The baton passes directly from process to process, like the user-level
// threads of a cooperative SystemC scheduler: a process that blocks runs
// the scheduler itself and resumes the next process, one goroutine switch
// per dispatch (none when it picks itself). The goroutine that called
// Run sleeps until a process hands it the status Run returns.
//
// Determinism is a load-bearing property for the reproduction: the paper
// argues that breakpoint-induced slowdown does not alter dataflow
// execution semantics precisely because the execution is deterministic
// with respect to the communication order (experiment P2).
package sim

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"dfdbg/internal/fault"
	"dfdbg/internal/obs"
)

// Time is a point on the simulated clock, in nanoseconds.
type Time uint64

// Duration is a span of simulated time, in nanoseconds.
type Duration = Time

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// TimeForever is the largest representable simulation time.
const TimeForever Time = ^Time(0)

func (t Time) String() string {
	switch {
	case t == TimeForever:
		return "forever"
	case t >= Second:
		return fmt.Sprintf("%d.%09ds", uint64(t)/uint64(Second), uint64(t)%uint64(Second))
	case t >= Microsecond:
		return fmt.Sprintf("%dus+%dns", uint64(t)/1000, uint64(t)%1000)
	default:
		return fmt.Sprintf("%dns", uint64(t))
	}
}

// ProcState describes the lifecycle of a simulation process.
type ProcState int

const (
	// ProcReady means the process is runnable and queued for dispatch.
	ProcReady ProcState = iota
	// ProcRunning means the process currently holds the execution baton.
	ProcRunning
	// ProcWaitEvent means the process is blocked on an Event.
	ProcWaitEvent
	// ProcWaitTime means the process sleeps until a wakeup time.
	ProcWaitTime
	// ProcDone means the process function returned (or panicked).
	ProcDone
)

func (s ProcState) String() string {
	switch s {
	case ProcReady:
		return "ready"
	case ProcRunning:
		return "running"
	case ProcWaitEvent:
		return "wait-event"
	case ProcWaitTime:
		return "wait-time"
	case ProcDone:
		return "done"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// RunStatus reports why Kernel.Run returned.
type RunStatus int

const (
	// RunIdle: no runnable processes and no pending timed notifications.
	// Every process either finished or is blocked on an event that nobody
	// will ever notify (see Kernel.Blocked to distinguish a deadlock).
	RunIdle RunStatus = iota
	// RunPaused: a process (typically a debugger hook) requested a global
	// pause; dispatching stopped after the current process yielded.
	RunPaused
	// RunHorizon: the until-time passed to RunUntil was reached.
	RunHorizon
	// RunError: a process panicked; see the error returned alongside.
	RunError
	// RunStalled: the progress watchdog tripped (no token movement for
	// the configured span of simulated time, an idle kernel with blocked
	// processes, or the wall-clock budget ran out). See Kernel.LastStall.
	RunStalled
)

func (s RunStatus) String() string {
	switch s {
	case RunIdle:
		return "idle"
	case RunPaused:
		return "paused"
	case RunHorizon:
		return "horizon"
	case RunError:
		return "error"
	case RunStalled:
		return "stalled"
	default:
		return fmt.Sprintf("RunStatus(%d)", int(s))
	}
}

// PanicError wraps a panic raised inside a simulation process.
type PanicError struct {
	Proc  string // process name
	Value any    // the recovered panic value
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", e.Proc, e.Value)
}

// Unwrap exposes the recovered panic value when it was an error, so
// errors.As can find layer-specific crash wrappers (pedf.CrashError)
// behind the kernel's recovery.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// DeadlockInfo describes processes blocked forever when the kernel went idle.
type DeadlockInfo struct {
	Time  Time
	Procs []BlockedProc
}

// BlockedProc is one permanently blocked process in a DeadlockInfo.
type BlockedProc struct {
	Proc  string
	Event string
}

func (d *DeadlockInfo) String() string {
	s := fmt.Sprintf("deadlock at t=%s: %d blocked process(es)", d.Time, len(d.Procs))
	for _, p := range d.Procs {
		s += fmt.Sprintf("\n  %s waiting on %s", p.Proc, p.Event)
	}
	return s
}

// StallReport explains why the progress watchdog tripped: the wait-for
// state of every process that is not making progress at the moment the
// kernel gave up.
type StallReport struct {
	Time          Time
	NoProgressFor Duration      // simulated span without token movement
	Idle          bool          // kernel had nothing left to do (classic deadlock)
	Wall          bool          // wall-clock budget exceeded, not a simulated stall
	Procs         []StalledProc // blocked/frozen/sleeping processes, by name
}

// StalledProc is one non-progressing process in a StallReport.
type StalledProc struct {
	Proc   string
	State  ProcState
	Event  string // event name when State == ProcWaitEvent
	Frozen bool
}

func (r *StallReport) String() string {
	cause := "no token movement"
	switch {
	case r.Wall:
		cause = "wall-clock budget exceeded"
	case r.Idle:
		cause = "kernel idle with blocked process(es)"
	}
	s := fmt.Sprintf("stall at t=%s: %s (no progress for %s); %d non-progressing process(es)",
		r.Time, cause, r.NoProgressFor, len(r.Procs))
	for _, p := range r.Procs {
		switch {
		case p.Frozen:
			s += fmt.Sprintf("\n  %s frozen", p.Proc)
		case p.State == ProcWaitEvent:
			s += fmt.Sprintf("\n  %s waiting on %s", p.Proc, p.Event)
		default:
			s += fmt.Sprintf("\n  %s %s", p.Proc, p.State)
		}
	}
	return s
}

// timedNote is a scheduled future action (an event notification, a sleep
// wakeup, or a wait timeout).
type timedNote struct {
	at    Time
	seq   uint64
	fn    func()
	heap  int   // index in the heap, for cancellation
	owner *Proc // the sleeping process, for a Proc's own sleep note
}

// Kernel is the simulation scheduler. All methods must be called either
// from the driver goroutine (the one calling Run) while Run is not
// executing, or from the currently running process; the baton-passing
// protocol guarantees mutual exclusion without locks.
type Kernel struct {
	now      Time
	seq      uint64
	procSeq  int
	runnable []*Proc // FIFO dispatch queue; live entries are runnable[runHead:]
	runHead  int     // index of the next process to dispatch
	notes    noteHeap
	procs    []*Proc
	current  *Proc
	wake     chan runResult // baton holder → driver: Run returns
	paused   bool
	err      error
	running  bool

	// Per-RunUntil scheduler state: pick counts its iterations for the
	// amortized wall-budget check, measured from wallStart.
	iter      uint
	wallStart time.Time

	// Batched-execution support (DESIGN §12). RunUntil mirrors its horizon
	// in `until` so Proc.Sleep can advance the clock inline — no note
	// allocation, no scheduler pass — when the sleeping process is
	// provably the only thing the kernel could run next. fastSleeps counts
	// consecutive inline advances and forces a full scheduler pass every
	// 4096 so the wall-budget check stays live.
	until      Time
	fastSleeps uint

	preRun     []func()
	preRunDone bool

	// Observability. obs is nil unless SetObserver installed a recorder;
	// the counters are plain uint64 bumps (noise-level when unobserved)
	// exposed as metrics at exposition time.
	obs        *obs.Recorder
	dispatches uint64
	advances   uint64
	eventFires uint64 // timed + immediate notifications that woke waiters
	deltaWakes uint64 // immediate Notify calls that woke waiters

	// Fault injection and hardening. flt is nil unless SetFaults armed a
	// plan; like obs, the disabled path is a single nil comparison at
	// each injection point. The watchdog trips RunStalled when no
	// progress (NoteProgress call) lands for watchLimit simulated units;
	// the wall budget bounds real time spent inside one RunUntil call.
	flt            *fault.Injector
	onArm          []func()
	watchLimit     Duration
	progressAt     Time
	wallBudget     time.Duration
	watchdogStalls uint64
	lastStall      *StallReport
	// stallSnap mirrors lastStall behind an atomic pointer so observers
	// on other goroutines (the web layer's /stall endpoint) can read
	// the most recent report while a run is in flight. A StallReport is
	// immutable once committed, so sharing the pointer is safe.
	stallSnap atomic.Pointer[StallReport]
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{wake: make(chan runResult)}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// SetObserver installs (or, with nil, removes) the event recorder fed by
// the kernel's hook points. The recorder is shared down the stack: every
// layer reaches it through Kernel.Observer, so the kernel's single-writer
// guarantee extends to the ring. Installing a recorder also registers the
// kernel's scheduler metrics.
func (k *Kernel) SetObserver(r *obs.Recorder) {
	k.obs = r
	if r == nil {
		return
	}
	m := r.Metrics
	m.CounterFunc("sim_dispatches_total", "process dispatches",
		func() float64 { return float64(k.dispatches) })
	m.CounterFunc("sim_time_advances_total", "virtual clock advances",
		func() float64 { return float64(k.advances) })
	m.CounterFunc("sim_event_fires_total", "event notifications that woke waiters",
		func() float64 { return float64(k.eventFires) })
	m.CounterFunc("sim_delta_wakes_total", "immediate (delta-cycle) wakes",
		func() float64 { return float64(k.deltaWakes) })
	m.GaugeFunc("sim_now_ns", "current simulated time",
		func() float64 { return float64(k.now) })
	m.GaugeFunc("sim_processes", "processes ever spawned",
		func() float64 { return float64(len(k.procs)) })
	m.CounterFunc("sim_watchdog_stalls_total", "progress-watchdog trips",
		func() float64 { return float64(k.watchdogStalls) })
}

// Observer returns the installed recorder (nil when observability is
// off). The obs hook-point idiom `k.Observer().Wants(kind)` is nil-safe.
func (k *Kernel) Observer() *obs.Recorder { return k.obs }

// SetFaults arms (or, with nil, disarms) a fault injector. Like the
// recorder it is shared down the stack: pedf and mach reach it through
// Kernel.Faults, so arming one injector covers every injection point.
func (k *Kernel) SetFaults(in *fault.Injector) {
	k.flt = in
	k.armChanged()
}

// OnArmChange registers fn to run after every SetFaults, SetWatchdog
// and SetWallBudget call. The batched-execution layer demotes
// proven-SDF regions while any of them is armed: fault trigger indices
// count per-token actions, and a stall can stop the run mid-schedule.
func (k *Kernel) OnArmChange(fn func()) { k.onArm = append(k.onArm, fn) }

func (k *Kernel) armChanged() {
	for _, fn := range k.onArm {
		fn()
	}
}

// Faults returns the armed injector (nil when fault injection is off).
func (k *Kernel) Faults() *fault.Injector { return k.flt }

// SetWatchdog arms the progress watchdog: RunUntil returns RunStalled
// when no NoteProgress call lands for limit simulated units, or when the
// kernel goes idle with blocked processes. 0 disarms it.
func (k *Kernel) SetWatchdog(limit Duration) {
	k.watchLimit = limit
	k.progressAt = k.now
	k.armChanged()
}

// Watchdog returns the armed progress limit (0 when disarmed).
func (k *Kernel) Watchdog() Duration { return k.watchLimit }

// SetWallBudget bounds the real time one RunUntil call may consume;
// exceeding it returns RunStalled with a Wall-flagged report. The check
// is amortized (every few thousand scheduler iterations) and abort-only,
// so it cannot perturb the deterministic schedule. 0 disarms it.
func (k *Kernel) SetWallBudget(d time.Duration) {
	k.wallBudget = d
	k.armChanged()
}

// WallBudget returns the armed wall-clock budget (0 when disarmed).
func (k *Kernel) WallBudget() time.Duration { return k.wallBudget }

// Dispatches returns how many process dispatches the kernel has made.
func (k *Kernel) Dispatches() uint64 { return k.dispatches }

// NoteProgress marks the current instant as "the application moved".
// The pedf layer calls it on every token push and pop, making the
// watchdog a token-movement watchdog as the paper's stall diagnosis
// wants, not a mere scheduler-activity one.
func (k *Kernel) NoteProgress() { k.progressAt = k.now }

// LastStall returns the report for the most recent RunStalled return
// (nil before the first stall).
func (k *Kernel) LastStall() *StallReport { return k.lastStall }

// StallSnapshot returns the most recent stall report like LastStall,
// but is safe to call from any goroutine — including while the kernel
// is mid-run on its owning goroutine. The returned report must be
// treated as read-only.
func (k *Kernel) StallSnapshot() *StallReport { return k.stallSnap.Load() }

// WatchdogStalls counts watchdog trips.
func (k *Kernel) WatchdogStalls() uint64 { return k.watchdogStalls }

// stallReport builds a StallReport from the current process states.
func (k *Kernel) stallReport(idle, wall bool) *StallReport {
	r := &StallReport{
		Time:          k.now,
		NoProgressFor: k.now - k.progressAt,
		Idle:          idle,
		Wall:          wall,
	}
	for _, p := range k.procs {
		if p.state == ProcDone || p.Daemon {
			continue
		}
		if p.state == ProcWaitEvent || p.state == ProcWaitTime || p.frozen {
			sp := StalledProc{Proc: p.name, State: p.state, Frozen: p.frozen}
			if p.state == ProcWaitEvent && p.waitEvent != nil {
				sp.Event = p.waitEvent.name
			}
			r.Procs = append(r.Procs, sp)
		}
	}
	sort.Slice(r.Procs, func(i, j int) bool { return r.Procs[i].Proc < r.Procs[j].Proc })
	return r
}

// commitStall records a watchdog trip.
func (k *Kernel) commitStall(r *StallReport) {
	k.watchdogStalls++
	k.lastStall = r
	k.stallSnap.Store(r)
	if k.obs.Wants(obs.KStall) {
		k.obs.Record(obs.Event{
			At: uint64(k.now), Kind: obs.KStall, PE: -1,
			Arg: int64(r.NoProgressFor), Arg2: int64(len(r.Procs)),
		})
	}
}

// Current returns the currently executing process, or nil if the kernel
// is not dispatching.
func (k *Kernel) Current() *Proc { return k.current }

// Procs returns all processes ever spawned, in spawn order.
func (k *Kernel) Procs() []*Proc {
	out := make([]*Proc, len(k.procs))
	copy(out, k.procs)
	return out
}

// ProcByName returns the first process with the given name, or nil.
func (k *Kernel) ProcByName(name string) *Proc {
	for _, p := range k.procs {
		if p.name == name {
			return p
		}
	}
	return nil
}

// Pause requests a global all-stop: after the currently running process
// yields, Run returns with RunPaused. Safe to call from inside a process
// (the usual case: a debugger hook stopping the world).
func (k *Kernel) Pause() { k.paused = true }

// Paused reports whether a pause is pending or active.
func (k *Kernel) Paused() bool { return k.paused }

// Resume clears the pause flag so a subsequent Run continues dispatching.
func (k *Kernel) Resume() { k.paused = false }

// Spawn creates a new process that will start executing fn at the current
// simulation time. It may be called before Run or from a running process.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		id:     k.procSeq,
		name:   name,
		k:      k,
		state:  ProcReady,
		queued: true,
		resume: make(chan struct{}),
	}
	k.procSeq++
	p.sleepFn = func() {
		if p.state == ProcWaitTime {
			k.makeRunnable(p)
		}
	}
	p.sleepNote.owner = p
	k.procs = append(k.procs, p)
	k.pushRunnable(p)
	go p.run(fn)
	return p
}

// Run dispatches processes until the kernel is idle, paused, or a process
// panics.
func (k *Kernel) Run() (RunStatus, error) {
	return k.RunUntil(TimeForever)
}

// OnPreRun registers fn to run exactly once, from the driver goroutine,
// immediately before the kernel dispatches its first process. Static
// pre-flight checks (the analyzer's pre-run warning pass) hook here.
func (k *Kernel) OnPreRun(fn func()) {
	k.preRun = append(k.preRun, fn)
}

// RunUntil is Run with a time horizon: the kernel stops advancing the
// clock past `until` (events scheduled exactly at `until` still fire).
// The driver makes the first pick; from then on processes pass the baton
// among themselves, and the driver sleeps until one of them hands back
// the status. A panic raised by the scheduler while a process held the
// baton (a timed-note callback, the fault injector, an obs tap) is
// re-raised here, on the driver.
func (k *Kernel) RunUntil(until Time) (RunStatus, error) {
	if k.running {
		return RunError, fmt.Errorf("sim: RunUntil called reentrantly")
	}
	k.running = true
	k.until = until
	defer func() { k.running = false }()
	if !k.preRunDone {
		k.preRunDone = true
		for _, fn := range k.preRun {
			fn()
		}
	}
	k.iter = 0
	if k.wallBudget > 0 {
		k.wallStart = time.Now()
	}
	p, st, err := k.pick()
	if p == nil {
		return st, err
	}
	p.resume <- struct{}{}
	res := <-k.wake
	if res.panicked != nil {
		panic(res.panicked)
	}
	return res.status, res.err
}

// runResult is what the baton holder hands the driver when Run returns:
// a status, or the value of a panic the scheduler raised on a process
// goroutine.
type runResult struct {
	status   RunStatus
	err      error
	panicked any
}

// pick is the scheduler. It fires due notes and advances the clock until
// it either chooses the next process, which it marks running and
// returns, or has the status RunUntil must return. It runs on whichever
// goroutine holds the baton: the driver for a run's first pick, then the
// process giving the baton up.
func (k *Kernel) pick() (*Proc, RunStatus, error) {
	for {
		if k.err != nil {
			err := k.err
			k.err = nil
			return nil, RunError, err
		}
		if k.paused {
			return nil, RunPaused, nil
		}
		// The wall-budget check is amortized and abort-only: it never
		// influences which process runs next, so a run that stays within
		// budget is bit-identical to one with no budget armed.
		k.iter++
		k.fastSleeps = 0
		if k.wallBudget > 0 && k.iter&4095 == 0 && time.Since(k.wallStart) > k.wallBudget {
			k.commitStall(k.stallReport(false, true))
			return nil, RunStalled, nil
		}
		if k.runHead < len(k.runnable) {
			p := k.runnable[k.runHead]
			k.runnable[k.runHead] = nil
			k.runHead++
			if k.runHead == len(k.runnable) {
				k.runnable = k.runnable[:0]
				k.runHead = 0
			}
			p.queued = false
			if p.state != ProcReady {
				// Process was cancelled while queued; skip.
				continue
			}
			if k.flt != nil && k.flt.OnDispatch(uint64(k.now), p.name) {
				p.frozen = true // injected freeze fault; recovered by Thaw
			}
			if p.frozen {
				// Withheld by the debugger; remember the wakeup.
				p.thawPending = true
				continue
			}
			if p.steps > 0 && k.takeSteps(p) {
				continue // between SleepSteps steps: re-armed, still parked
			}
			k.dispatches++
			if k.obs.Wants(obs.KDispatch) {
				k.obs.Record(obs.Event{
					At: uint64(k.now), Kind: obs.KDispatch,
					PE: -1, Arg: int64(p.id), Actor: p.name,
				})
			}
			k.current = p
			p.state = ProcRunning
			return p, 0, nil
		}
		// No runnable process: advance time to the next notification.
		if k.notes.Len() == 0 {
			if k.watchLimit > 0 {
				if r := k.stallReport(true, false); len(r.Procs) > 0 {
					k.commitStall(r)
					return nil, RunStalled, nil
				}
			}
			return nil, RunIdle, nil
		}
		next := k.notes.peek()
		if next.at > k.until {
			k.now = k.until
			return nil, RunHorizon, nil
		}
		if k.watchLimit > 0 && next.at > k.progressAt+k.watchLimit {
			// No token movement across a full watchdog span. Pretend
			// progress at the wakeup point so a resumed run proceeds past
			// this gap instead of re-tripping immediately.
			r := k.stallReport(false, false)
			k.progressAt = next.at
			if len(r.Procs) > 0 {
				k.commitStall(r)
				return nil, RunStalled, nil
			}
		}
		if next.at > k.now {
			k.advances++
			if k.obs.Wants(obs.KTimeAdvance) {
				k.obs.Record(obs.Event{
					At: uint64(next.at), Kind: obs.KTimeAdvance,
					PE: -1, Arg: int64(next.at - k.now),
				})
			}
		}
		k.now = next.at
		// Fire every notification scheduled for this instant, in
		// sequence order, before dispatching anyone.
		for k.notes.Len() > 0 && k.notes.peek().at == k.now {
			n := k.notes.pop()
			n.fn()
		}
	}
}

// handoff gives up the baton from, a process that blocked or finished:
// it picks the next process and resumes it, or wakes the driver when Run
// must return. It reports whether from picked itself, in which case from
// keeps running without a goroutine switch.
func (k *Kernel) handoff(from *Proc) bool {
	k.current = nil
	next, res := k.pickOnProc()
	switch next {
	case from:
		return true
	case nil:
		k.wake <- res
	default:
		next.resume <- struct{}{}
	}
	return false
}

// pickOnProc is pick on a process goroutine. A panic the scheduler
// raises there belongs to the driver, not to the process that happened
// to hold the baton, so it is caught here, before the process's own
// recovers (crash containment, Proc.run) can see it, and handed to
// RunUntil to re-raise.
func (k *Kernel) pickOnProc() (next *Proc, res runResult) {
	defer func() {
		if r := recover(); r != nil {
			next, res = nil, runResult{panicked: r}
		}
	}()
	next, res.status, res.err = k.pick()
	return next, res
}

// Shutdown tears the kernel down: every process that has not finished
// is resumed one last time with a poison mark and unwinds via a
// sentinel panic, so no goroutine outlives the kernel. A poisoned
// process hands the baton straight back to the driver; it never picks. A debug server
// hosting many sessions calls this when a session is killed mid-run;
// without it, parked process goroutines (blocked on the baton) would
// leak for the life of the server. Must be called from the driver
// goroutine while Run is not executing. Idempotent.
func (k *Kernel) Shutdown() error {
	if k.running {
		return fmt.Errorf("sim: Shutdown called while the kernel is running")
	}
	for _, p := range k.procs {
		if p.state == ProcDone {
			continue
		}
		p.poisoned = true
		p.state = ProcRunning
		k.current = p
		p.resume <- struct{}{}
		<-k.wake
		k.current = nil
	}
	// Poison unwinds are expected; do not surface them as process errors.
	k.err = nil
	k.runnable = nil
	k.runHead = 0
	return nil
}

// Blocked returns a DeadlockInfo if any live process is blocked on an
// event while the kernel has nothing left to do, or nil otherwise.
// Call it after Run returns RunIdle.
func (k *Kernel) Blocked() *DeadlockInfo {
	var blocked []BlockedProc
	for _, p := range k.procs {
		if p.state == ProcWaitEvent && !p.Daemon {
			name := "<nil>"
			if p.waitEvent != nil {
				name = p.waitEvent.name
			}
			blocked = append(blocked, BlockedProc{Proc: p.name, Event: name})
		}
	}
	if len(blocked) == 0 {
		return nil
	}
	sort.Slice(blocked, func(i, j int) bool { return blocked[i].Proc < blocked[j].Proc })
	return &DeadlockInfo{Time: k.now, Procs: blocked}
}

// scheduleNote enqueues a future action.
func (k *Kernel) scheduleNote(at Time, fn func()) *timedNote {
	n := &timedNote{at: at, seq: k.seq, fn: fn}
	k.seq++
	k.notes.push(n)
	return n
}

// scheduleNoteIn is scheduleNote with caller-provided storage, letting a
// process reuse one note (and one closure) across its sleeps instead of
// allocating per call. The note must not currently sit in the heap.
func (k *Kernel) scheduleNoteIn(n *timedNote, at Time, fn func()) {
	n.at, n.seq, n.fn = at, k.seq, fn
	k.seq++
	k.notes.push(n)
}

// makeRunnable appends p to the dispatch queue (at most once). Frozen
// processes record the wakeup and queue on Thaw instead.
func (k *Kernel) makeRunnable(p *Proc) {
	if p.queued || p.state == ProcDone {
		return
	}
	if p.frozen {
		p.state = ProcReady
		p.thawPending = true
		return
	}
	p.state = ProcReady
	p.queued = true
	k.pushRunnable(p)
}

// pushRunnable appends to the dispatch queue, compacting consumed head
// space first when append would otherwise grow the backing array. The
// queue therefore stays at its high-water mark instead of crawling
// through memory one reallocation per wrap.
func (k *Kernel) pushRunnable(p *Proc) {
	if k.runHead > 0 && len(k.runnable) == cap(k.runnable) {
		n := copy(k.runnable, k.runnable[k.runHead:])
		for i := n; i < len(k.runnable); i++ {
			k.runnable[i] = nil
		}
		k.runnable = k.runnable[:n]
		k.runHead = 0
	}
	k.runnable = append(k.runnable, p)
}
