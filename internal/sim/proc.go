package sim

import (
	"fmt"

	"dfdbg/internal/obs"
)

// Proc is a simulation process: a goroutine that runs only while it holds
// the kernel's baton, and yields by blocking on an Event or on time.
type Proc struct {
	id     int
	name   string
	k      *Kernel
	state  ProcState
	queued bool // true while sitting in the kernel's runnable queue
	resume chan struct{}

	waitEvent    *Event // set while state == ProcWaitEvent
	wokenByEvent bool   // set by Event.fire before making the proc runnable
	wakeAt       Time

	// sleepNote and sleepFn are the reusable timed-note storage for
	// Sleep's slow path: a process sleeps at most once concurrently, so
	// one note per process suffices and the per-sleep heap allocation
	// (note + closure) disappears.
	sleepNote timedNote
	sleepFn   func()
	steps     int // Sleep(step) calls SleepSteps still owes
	step      Duration

	// Tag is an arbitrary user annotation (the platform layer stores the
	// processing element a process is mapped to; the debugger uses it to
	// present execution contexts).
	Tag any

	// Daemon marks service processes (environment sinks) that are
	// expected to block forever; Kernel.Blocked ignores them when
	// deciding whether an idle kernel is deadlocked.
	Daemon bool

	// frozen processes are withheld from dispatch (a debugger freezing
	// one execution path while investigating another); thawPending
	// remembers a wakeup that arrived while frozen.
	frozen      bool
	thawPending bool

	// poisoned marks a process being torn down by Kernel.Shutdown: the
	// next time it receives the baton it unwinds with a sentinel panic
	// instead of resuming its body.
	poisoned bool
}

// Freeze withholds the process from dispatch until Thaw. A process that
// becomes runnable while frozen is dispatched on Thaw. Freezing the
// currently running process takes effect at its next yield.
func (p *Proc) Freeze() { p.frozen = true }

// Frozen reports whether the process is withheld from dispatch.
func (p *Proc) Frozen() bool { return p.frozen }

// Thaw releases a frozen process, re-queueing it if a wakeup arrived
// while it was frozen.
func (p *Proc) Thaw() {
	if !p.frozen {
		return
	}
	p.frozen = false
	if p.thawPending {
		p.thawPending = false
		p.k.makeRunnable(p)
	}
}

// ID returns the process's spawn-order identifier.
func (p *Proc) ID() int { return p.id }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// State returns the current lifecycle state.
func (p *Proc) State() ProcState { return p.state }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// WaitingOn returns the event this process is blocked on, or nil.
func (p *Proc) WaitingOn() *Event {
	if p.state == ProcWaitEvent {
		return p.waitEvent
	}
	return nil
}

func (p *Proc) String() string {
	return fmt.Sprintf("proc#%d(%s,%s)", p.id, p.name, p.state)
}

// errProcShutdown is the sentinel a poisoned process panics with to
// unwind its stack during Kernel.Shutdown. Runtime layers may wrap the
// panic (crash containment); run ignores any recovered value while the
// process is poisoned, so wrapping is harmless.
var errProcShutdown = fmt.Errorf("sim: process torn down by Kernel.Shutdown")

// run is the goroutine body installed by Kernel.Spawn.
func (p *Proc) run(fn func(*Proc)) {
	<-p.resume
	defer func() {
		if r := recover(); r != nil && !p.poisoned {
			p.k.err = &PanicError{Proc: p.name, Value: r}
		}
		p.state = ProcDone
		p.waitEvent = nil
		p.k.yield <- struct{}{}
	}()
	if p.poisoned {
		panic(errProcShutdown)
	}
	fn(p)
}

// Poisoned reports whether the process is being torn down by
// Kernel.Shutdown. Deferred cleanup on the process stack must not issue
// blocking operations (Sleep, Wait) once this is set.
func (p *Proc) Poisoned() bool { return p.poisoned }

// checkCurrent panics if p is not the process holding the baton; blocking
// operations are only legal on the running process.
func (p *Proc) checkCurrent(op string) {
	if p.k.current != p {
		panic(fmt.Sprintf("sim: %s called on %s which is not the running process", op, p))
	}
}

// yieldAndWait gives the baton back to the kernel and blocks until the
// kernel dispatches this process again.
func (p *Proc) yieldAndWait() {
	p.k.yield <- struct{}{}
	<-p.resume
	if p.poisoned {
		panic(errProcShutdown)
	}
}

// Wait blocks the process until ev is notified.
func (p *Proc) Wait(ev *Event) {
	p.checkCurrent("Wait")
	p.state = ProcWaitEvent
	p.waitEvent = ev
	ev.addWaiter(p)
	p.yieldAndWait()
	p.waitEvent = nil
	p.wokenByEvent = false
}

// WaitTimeout blocks until ev is notified or d elapses, whichever comes
// first. It reports whether the event fired (false means the timeout won).
func (p *Proc) WaitTimeout(ev *Event, d Duration) bool {
	p.checkCurrent("WaitTimeout")
	p.state = ProcWaitEvent
	p.waitEvent = ev
	ev.addWaiter(p)
	note := p.k.scheduleNote(p.k.now+d, func() {
		// Timeout fired first: withdraw from the event and wake up.
		if p.state == ProcWaitEvent && p.waitEvent == ev {
			ev.removeWaiter(p)
			p.wokenByEvent = false
			p.k.makeRunnable(p)
		}
	})
	p.yieldAndWait()
	p.k.notes.remove(note) // harmless if the note already fired
	p.waitEvent = nil
	woke := p.wokenByEvent
	p.wokenByEvent = false
	return woke
}

// Sleep blocks the process for d units of simulated time.
//
// Fast path (DESIGN §12): when nothing the kernel could run before the
// wakeup instant would do more than re-arm a SleepSteps step, the clock
// is advanced inline without yielding the baton, with a schedule
// identical to the yield-and-redispatch path (see sleepInline). Every
// 4096 consecutive inline advances one full scheduler pass is forced so
// the wall-clock budget check stays live.
func (p *Proc) Sleep(d Duration) {
	p.checkCurrent("Sleep")
	if d == 0 {
		p.YieldNow()
		return
	}
	if !p.k.sleepInline(p, d) {
		p.k.armSleep(p, d)
		p.yieldAndWait()
	}
}

// SleepSteps is n consecutive Sleep(step) calls, step > 0, for one
// baton round trip instead of n. Between steps the kernel only re-arms
// the process's timer, at the dispatch position the step-by-step loop
// would hold, so every other process sees the same schedule down to
// the order of same-instant wakeups (DESIGN §12).
func (p *Proc) SleepSteps(n int, step Duration) {
	p.checkCurrent("SleepSteps")
	p.steps, p.step = n, step
	if p.k.takeSteps(p) {
		p.yieldAndWait()
	}
}

// takeSteps pays p's owed steps, inline while the fast path allows, and
// arms the timer for the first one it cannot, reporting whether it did.
// p holds the baton, or, between steps, the run loop calls it in place of
// dispatching p.
func (k *Kernel) takeSteps(p *Proc) bool {
	for p.steps > 0 {
		p.steps--
		if !k.sleepInline(p, p.step) {
			k.armSleep(p, p.step)
			return true
		}
	}
	return false
}

// armSleep parks p until now+d on its reusable timed note.
func (k *Kernel) armSleep(p *Proc, d Duration) {
	p.state = ProcWaitTime
	p.wakeAt = k.now + d
	k.scheduleNoteIn(&p.sleepNote, p.wakeAt, p.sleepFn)
}

// sleepInline advances the clock by d for p, and reports whether it
// could: no fault plan, watchdog or horizon intervenes, and every
// process queued or note due by then is a SleepSteps step that would
// only re-arm. Those steps are taken here, in the kernel's order: a
// step due exactly at the wakeup fires ahead of p and re-arms; a queued
// step would re-arm for the same instant behind p, so it stays queued,
// one step further on.
func (k *Kernel) sleepInline(p *Proc, d Duration) bool {
	wake := k.now + d
	queued := k.runnable[k.runHead:]
	steps := len(queued) > 0 || (k.notes.Len() > 0 && k.notes.peek().at <= wake)
	if steps && !k.onlySteps(queued, wake, d) ||
		k.paused || k.flt != nil || k.err != nil || p.frozen || p.poisoned ||
		wake > k.until ||
		(k.watchLimit > 0 && wake > k.progressAt+k.watchLimit) ||
		k.fastSleeps >= 4096 {
		return false
	}
	k.fastSleeps++
	k.advances++
	if k.obs.Wants(obs.KTimeAdvance) {
		k.obs.Record(obs.Event{
			At: uint64(wake), Kind: obs.KTimeAdvance,
			PE: -1, Arg: int64(d),
		})
	}
	k.now = wake
	if steps {
		for k.notes.Len() > 0 && k.notes.peek().at == wake {
			q := k.notes.pop().owner
			q.steps--
			k.armSleep(q, q.step)
		}
		for _, q := range queued {
			q.steps--
		}
	}
	return true
}

// onlySteps reports whether every queued process is a SleepSteps step
// of length d and every note due by w a step falling exactly at w.
func (k *Kernel) onlySteps(queued []*Proc, w Time, d Duration) bool {
	for _, q := range queued {
		if q.steps == 0 || q.step != d || q.frozen || q.state != ProcReady {
			return false
		}
	}
	return k.notes.onlySteps(0, w)
}

// YieldNow relinquishes the baton but stays runnable at the current time
// (a "delta cycle" yield). Other ready processes run before this one
// resumes.
func (p *Proc) YieldNow() {
	p.checkCurrent("YieldNow")
	p.k.makeRunnable(p)
	p.yieldAndWait()
}

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.k.now }
