// Package obs is the always-on observability layer beside the
// stop-the-world debugger: a fixed-capacity event ring buffer fed by
// cheap hook points in the simulation kernel, the PEDF runtime, the
// machine model and the low-level debugger, plus a metrics registry, a
// simulated-time profiler and a Chrome trace-event exporter.
//
// Design constraints (mirroring the paper's Section V concern that
// instrumentation must not distort what it observes):
//
//   - Off by default: nothing records until a Recorder is installed on
//     the kernel (sim.Kernel.SetObserver). Every hook point is a
//     nil-receiver-safe mask check when disabled.
//   - Allocation-free recording: the ring is allocated once; Event is a
//     flat struct whose string fields alias names that already exist
//     (actor, port, module). Payload rendering — the only allocating
//     path — is opt-in (SetPayloads) and only the post-mortem trace
//     comparator asks for it.
//   - Single writer per kernel: the baton-passing protocol guarantees
//     one process runs at a time, and the kernel's scheduler records on
//     whichever goroutine holds the baton (the driver or the process
//     handing it on), so the ring needs no locks. Metrics
//     use atomics so an optional net/http exposition endpoint can read
//     them from another goroutine.
//   - Passive: recording never notifies events, sleeps, or touches
//     framework state, so enabling it cannot alter token order
//     (checked by the P2-style determinism test).
package obs

import (
	"sync"
	"sync/atomic"
)

// Kind classifies a recorded event.
type Kind uint8

const (
	// KNone is the zero Kind (never recorded).
	KNone Kind = iota

	// Simulation-kernel events.

	// KDispatch: a process received the execution baton. Actor is the
	// process name, Arg its id.
	KDispatch
	// KTimeAdvance: the virtual clock moved. Arg is the delta in ns.
	KTimeAdvance
	// KEventFire: a sim.Event notification woke waiters. Actor is the
	// event name, Arg the number of processes woken.
	KEventFire

	// PEDF runtime events.

	// KFireBegin/KFireEnd bracket one filter WORK firing. Actor is the
	// filter, PE its processing element, Arg the firing index; KFireEnd
	// carries the simulated duration in Arg2.
	KFireBegin
	KFireEnd
	// KCtlBegin/KCtlEnd bracket one controller WORK invocation. Actor
	// is the controller, Arg the module step index.
	KCtlBegin
	KCtlEnd
	// KStepBegin/KStepEnd bracket the module step protocol. Actor is
	// the module, Arg the step index.
	KStepBegin
	KStepEnd
	// KActorStart/KActorSync: controller scheduling calls. Actor is the
	// target filter, Other the module.
	KActorStart
	KActorSync
	// KPush: a token landed on a link. Actor is the producer, Other the
	// consumer, Port the producing port, Link the link id, Arg the
	// occupancy after the push, Arg2 the production sequence number.
	// Val is the rendered payload when payload recording is on.
	KPush
	// KPop: a token left a link. Actor is the consumer, Other the
	// producer, Port the consuming port, Arg the occupancy after the
	// pop, Arg2 the consumption sequence number.
	KPop
	// KBlockBegin/KBlockEnd bracket a link-operation or scheduling wait
	// (blocked producer/consumer, controller waiting for sync). Actor
	// is the blocked actor, Other the reason ("push:o", "pop:i",
	// "wait:sync"); KBlockEnd carries the blocked span in Arg2.
	KBlockBegin
	KBlockEnd

	// Machine-model events.

	// KTransfer: a token transfer crossed the memory hierarchy. Actor
	// is the moving process, PE the destination, Link the memory level
	// (0=L1, 1=L2, 2=L3/DMA), Arg the word count, Arg2 the charged
	// simulated cost in ns.
	KTransfer

	// Low-level debugger events.

	// KBpHit: breakpoint actions ran at a hook crossing. Actor is the
	// symbol, Arg the host-side handler cost in wall-clock ns (the live
	// intrusiveness accounting of experiment P1), Arg2 the number of
	// breakpoints that fired.
	KBpHit
	// KInject: a token was inserted out-of-band (debugger token surgery
	// or unstick recovery). Link/Arg/Arg2 mirror KPush.
	KInject
	// KDropTok: a queued token was deleted out-of-band. Arg is the
	// occupancy after removal, Arg2 the dropped position.
	KDropTok
	// KReplace: a queued token's payload was overwritten out-of-band.
	// Arg2 is the position.
	KReplace
	// KFault: an injected fault fired. Other carries the canonical fault
	// line; Link is set for link faults.
	KFault
	// KStall: the sim progress watchdog tripped. Arg is the silent span
	// in ns, Arg2 the number of non-progressing processes.
	KStall

	// KBatchMode: a proven-SDF region switched between batched and
	// per-token execution (DESIGN §12). Arg is the region id, Arg2 is 1
	// for batched / 0 for per-token, Other the demotion reason (empty
	// when promoting). Grouped under MaskSim: mode flips are scheduler
	// internals and must not perturb default-mask trace identity between
	// engines.
	KBatchMode

	// Checkpoint lifecycle events (DESIGN §13). Grouped under
	// MaskDefault so recovery is visible in the default trace, but
	// skipped by the obs state encoder: when a checkpoint is taken (or
	// a session is restored) is supervisor policy, not simulated
	// behaviour, so it must not participate in replay verification.

	// KCheckpoint: a session checkpoint was captured. Arg is the
	// checkpoint id, Arg2 the journal length, Other the label.
	KCheckpoint
	// KRestore: the session was restored from a checkpoint. Arg is the
	// checkpoint id, Other the reason ("restore", "reverse-step",
	// "recovery", ...).
	KRestore

	numKinds
)

func (k Kind) String() string {
	names := [...]string{
		KNone: "none", KDispatch: "dispatch", KTimeAdvance: "advance",
		KEventFire: "fire", KFireBegin: "work+", KFireEnd: "work-",
		KCtlBegin: "ctl+", KCtlEnd: "ctl-", KStepBegin: "step+",
		KStepEnd: "step-", KActorStart: "start", KActorSync: "sync",
		KPush: "push", KPop: "pop", KBlockBegin: "block+",
		KBlockEnd: "block-", KTransfer: "xfer", KBpHit: "bphit",
		KInject: "inject", KDropTok: "droptok", KReplace: "replace",
		KFault: "fault", KStall: "stall", KBatchMode: "batch",
		KCheckpoint: "ckpt", KRestore: "restore",
	}
	if int(k) < len(names) && names[k] != "" {
		return names[k]
	}
	return "Kind(?)"
}

// ParseKind maps a kind's String() name ("push", "work+", ...) back to
// the Kind, for query-side filters.
func ParseKind(name string) (Kind, bool) {
	for k := KNone + 1; k < numKinds; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return KNone, false
}

// Mask selects which kinds a Recorder stores.
type Mask uint64

// Bit returns the mask bit of one kind.
func Bit(k Kind) Mask { return 1 << k }

// Predefined masks.
const (
	// MaskSim: kernel-level events (very high volume; opt-in).
	MaskSim Mask = 1<<KDispatch | 1<<KTimeAdvance | 1<<KEventFire | 1<<KBatchMode
	// MaskDataflow: token and scheduling events of the PEDF runtime.
	MaskDataflow Mask = 1<<KFireBegin | 1<<KFireEnd | 1<<KCtlBegin |
		1<<KCtlEnd | 1<<KStepBegin | 1<<KStepEnd | 1<<KActorStart |
		1<<KActorSync | 1<<KPush | 1<<KPop | 1<<KBlockBegin | 1<<KBlockEnd
	// MaskMach: memory-hierarchy transfers.
	MaskMach Mask = 1 << KTransfer
	// MaskDebug: debugger intrusiveness events.
	MaskDebug Mask = 1 << KBpHit
	// MaskFault: fault-injection, token-surgery and watchdog events.
	MaskFault Mask = 1<<KInject | 1<<KDropTok | 1<<KReplace | 1<<KFault | 1<<KStall
	// MaskAll records everything.
	MaskAll Mask = 1<<numKinds - 1
	// MaskDefault is everything except the kernel-internal events,
	// which flood the ring without helping dataflow-level analysis.
	MaskDefault = MaskAll &^ MaskSim
)

// Event is one ring entry. The struct is flat so recording is a single
// slot assignment; string fields alias already-interned names and Val
// stays empty unless payload recording is on.
type Event struct {
	At    uint64 // simulated time, ns
	Kind  Kind
	PE    int32  // processing element id (-1 host, 0 when not applicable)
	Link  int32  // link id or memory level, kind-specific
	Arg   int64  // kind-specific scalar (occupancy, words, step, ...)
	Arg2  int64  // second scalar (duration, sequence, cost, ...)
	Actor string // acting side (producer, consumer, process, symbol)
	Other string // peer actor, module, or wait reason
	Port  string // port name for KPush/KPop
	Val   string // rendered payload (only with SetPayloads(true))
}

// DefaultCap is the ring capacity used when none is given.
const DefaultCap = 1 << 14

// Recorder is the fixed-capacity drop-oldest event ring plus the
// metrics registry of one simulation kernel. All Record calls must come
// from the kernel's driver/process goroutines (single writer); the
// read-side methods (Snapshot, Dropped, ...) are meant for the same
// goroutine between runs.
type Recorder struct {
	ring     []Event
	head     uint64 // total events ever recorded
	mask     Mask
	payloads bool
	scratch  []Event // reusable burst-composition arena (see Scratch)

	// tap, when installed, receives every recorded event (plus its
	// sequence number) synchronously on the recording goroutine. The
	// pointer is atomic so the web layer can attach and detach live
	// streams from other goroutines; the installed function must never
	// block (web.Broadcaster queues with drop-oldest backpressure).
	tap atomic.Pointer[func(Event, uint64)]

	// Metrics is the registry the instrumented layers publish into.
	Metrics *Registry
}

// NewRecorder creates a recorder with the given ring capacity
// (DefaultCap if <= 0) and the default kind mask.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	r := &Recorder{
		ring:    takeRing(capacity),
		mask:    MaskDefault,
		Metrics: NewRegistry(),
	}
	// The recorder's own health, function-backed like every other layer.
	r.Metrics.CounterFunc("obs_events_total", "events ever recorded into the ring",
		func() float64 { return float64(r.Total()) })
	r.Metrics.CounterFunc("obs_events_dropped_total", "events overwritten by drop-oldest",
		func() float64 { return float64(r.Dropped()) })
	r.Metrics.GaugeFunc("obs_ring_capacity", "event ring capacity",
		func() float64 { return float64(len(r.ring)) })
	return r
}

// Wants reports whether events of kind k should be recorded. It is
// nil-receiver-safe so hook points can be written as
// `if rec.Wants(obs.KPush) { rec.Record(...) }` with rec possibly nil —
// the disabled path costs one comparison.
func (r *Recorder) Wants(k Kind) bool {
	return r != nil && r.mask&(1<<k) != 0
}

// Payloads reports whether token payload rendering is requested
// (nil-receiver-safe).
func (r *Recorder) Payloads() bool { return r != nil && r.payloads }

// SetPayloads toggles payload rendering on KPush/KPop events. Rendering
// allocates, so it is off unless a trace consumer asks for it.
func (r *Recorder) SetPayloads(on bool) { r.payloads = on }

// SetMask replaces the kind mask.
func (r *Recorder) SetMask(m Mask) { r.mask = m }

// EnableKinds adds kinds to the mask.
func (r *Recorder) EnableKinds(m Mask) { r.mask |= m }

// Mask returns the current kind mask.
func (r *Recorder) Mask() Mask { return r.mask }

// Record stores one event, overwriting the oldest when the ring is
// full. Callers are expected to gate on Wants; Record itself is
// unconditional (and nil-safe).
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	seq := r.head
	r.ring[seq%uint64(len(r.ring))] = ev
	r.head++
	if t := r.tap.Load(); t != nil {
		(*t)(ev, seq)
	}
}

// Slot returns in-place storage for the next event: the ring IS the
// arena. The caller must overwrite the whole slot (struct-literal
// assignment — slots hold stale events) and publish it with Commit.
// Nothing is recorded if Commit is never called. Nil-receiver-safe:
// callers gate on Wants, which returns false for a nil recorder.
func (r *Recorder) Slot() *Event {
	return &r.ring[r.head%uint64(len(r.ring))]
}

// Commit publishes the event written into Slot's storage.
func (r *Recorder) Commit() {
	seq := r.head
	r.head++
	if t := r.tap.Load(); t != nil {
		(*t)(r.ring[seq%uint64(len(r.ring))], seq)
	}
}

// Scratch returns the recorder's reusable composition arena, at least n
// events long. A producer that emits a burst (the batched-execution
// layer flipping every region's mode at once) composes the burst here
// and hands it to RecordBatch — zero per-event allocations, one arena
// reused for the recorder's lifetime. Single-writer like the ring.
func (r *Recorder) Scratch(n int) []Event {
	if r == nil {
		return nil
	}
	if cap(r.scratch) < n {
		r.scratch = make([]Event, n)
	}
	return r.scratch[:n:n]
}

// RecordBatch stores a slice of events in order, equivalent to calling
// Record on each. Nil-safe.
func (r *Recorder) RecordBatch(evs []Event) {
	if r == nil {
		return
	}
	for i := range evs {
		r.Record(evs[i])
	}
}

// SetTap installs (or with nil removes) the live event tap. Safe to
// call from any goroutine; at most one tap is active — fan-out to many
// consumers belongs to the tap function (see web.Broadcaster).
func (r *Recorder) SetTap(fn func(Event, uint64)) {
	if fn == nil {
		r.tap.Store(nil)
		return
	}
	r.tap.Store(&fn)
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int { return len(r.ring) }

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	if r.head < uint64(len(r.ring)) {
		return int(r.head)
	}
	return len(r.ring)
}

// Total returns the number of events ever recorded.
func (r *Recorder) Total() uint64 { return r.head }

// Dropped returns how many events were overwritten (drop-oldest).
func (r *Recorder) Dropped() uint64 {
	if r.head <= uint64(len(r.ring)) {
		return 0
	}
	return r.head - uint64(len(r.ring))
}

// Snapshot copies the retained events in chronological order.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	n := r.Len()
	out := make([]Event, n)
	start := r.head - uint64(n)
	for i := 0; i < n; i++ {
		out[i] = r.ring[(start+uint64(i))%uint64(len(r.ring))]
	}
	return out
}

// Range calls fn for every retained event in chronological order
// without copying the ring; it stops early when fn returns false.
// Like Snapshot, it must run on the goroutine that owns the kernel —
// the web layer calls it from inside a session's serialized query.
func (r *Recorder) Range(fn func(Event) bool) {
	if r == nil {
		return
	}
	n := r.Len()
	start := r.head - uint64(n)
	for i := 0; i < n; i++ {
		if !fn(r.ring[(start+uint64(i))%uint64(len(r.ring))]) {
			return
		}
	}
}

// Window copies retained events by total-order sequence number: every
// event with sequence >= from, oldest first, capped at max entries when
// max > 0. The sequence of an event is the recorder's total count at
// the moment it was recorded (the first event ever is sequence 0), so
// a poller advances with from = first + len(returned). Events older
// than the drop-oldest horizon are silently absent: the returned first
// sequence tells the caller how much was lost. Like Snapshot, Window
// must run on the goroutine that owns the kernel.
func (r *Recorder) Window(from uint64, max int) (events []Event, first uint64) {
	if r == nil {
		return nil, 0
	}
	oldest := r.head - uint64(r.Len())
	if from < oldest {
		from = oldest
	}
	if from >= r.head {
		return nil, r.head
	}
	n := int(r.head - from)
	if max > 0 && n > max {
		n = max
	}
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		out[i] = r.ring[(from+uint64(i))%uint64(len(r.ring))]
	}
	return out, from
}

// Reset discards all retained events (the ring keeps its capacity).
func (r *Recorder) Reset() {
	r.clearUsed()
	r.head = 0
}

// clearUsed zeroes the slots written so far. Slots past the head of a
// ring that never wrapped are zero already: rings start zeroed and
// every release or reset clears what was used.
func (r *Recorder) clearUsed() {
	clear(r.ring[:min(r.head, uint64(len(r.ring)))])
}

// ringPools recycles event rings across recorders, one sync.Pool per
// capacity (*sync.Pool values keyed by int). A debug server builds a
// world per session, and without reuse each session's ring (65536
// events, ~6.8 MB) is a fresh allocation large enough to trigger a GC
// cycle during session creation.
var ringPools sync.Map

func ringPool(capacity int) *sync.Pool {
	if p, ok := ringPools.Load(capacity); ok {
		return p.(*sync.Pool)
	}
	p, _ := ringPools.LoadOrStore(capacity, new(sync.Pool))
	return p.(*sync.Pool)
}

// takeRing returns a zeroed ring of the given capacity, reusing a
// released one when the pool has it.
func takeRing(capacity int) []Event {
	if ring, ok := ringPool(capacity).Get().(*[]Event); ok {
		return *ring
	}
	return make([]Event, capacity)
}

// Release ends the recorder's life and hands its ring to the next
// recorder of the same capacity. Call it only once nothing records into
// or reads from the recorder any more: its kernel is shut down and every
// view of it (CLI, web tap, checkpoint capture) is gone. A released
// recorder is empty with capacity 0, and recording into it panics
// rather than writing into a ring another recorder now owns. Release is
// idempotent and nil-safe.
func (r *Recorder) Release() {
	if r == nil || r.ring == nil {
		return
	}
	r.clearUsed()
	ring := r.ring
	r.ring, r.head = nil, 0
	ringPool(len(ring)).Put(&ring)
}
