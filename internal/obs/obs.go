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
//   - Allocation-free recording into recycled storage: the ring stores
//     a pointer-free slot per event, with the event's names as ids into
//     a per-recorder name table and its payload text in a per-recorder
//     byte arena, so the collector never scans it. When a world's stack
//     shuts down its storage goes to a process-wide spare list, and the
//     next recorder of that capacity reuses it without zeroing: a debug
//     server rebuilding worlds on every restore and reverse-step
//     allocates no ring. Payload rendering is opt-in (SetPayloads); the
//     trace comparator and every served world ask for it.
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
	"sync/atomic"
	"unsafe"
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
	st       *storage // nil once released
	ring     []slot   // st.slots
	head     uint64   // total events ever recorded
	next     int      // ring index of the next event: head % len(ring)
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
// (DefaultCap if <= 0) and the default kind mask. Its storage is a
// released recorder's when one of the same capacity is spare.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	st := takeStorage(capacity)
	r := &Recorder{
		st:      st,
		ring:    st.slots,
		mask:    MaskDefault,
		Metrics: NewRegistry(),
	}
	// The recorder's own health, function-backed like every other layer.
	r.Metrics.RegisterFamily(Family{Series: recorderSeries, Rows: 1, Read: r.readMetric})
	return r
}

// recorderSeries are the recorder's own metrics, read by
// Recorder.readMetric.
var recorderSeries = []Series{
	{Name: "obs_events_total", Help: "events ever recorded into the ring", Type: TypeCounter},
	{Name: "obs_events_dropped_total", Help: "events overwritten by drop-oldest", Type: TypeCounter},
	{Name: "obs_ring_capacity", Help: "event ring capacity", Type: TypeGauge},
}

func (r *Recorder) readMetric(_, col int) float64 {
	switch col {
	case 0:
		return float64(r.Total())
	case 1:
		return float64(r.Dropped())
	}
	return float64(r.Cap())
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
// costs time on every token event, so it is off unless a trace consumer
// asks for it.
func (r *Recorder) SetPayloads(on bool) { r.payloads = on }

// SetMask replaces the kind mask.
func (r *Recorder) SetMask(m Mask) { r.mask = m }

// EnableKinds adds kinds to the mask.
func (r *Recorder) EnableKinds(m Mask) { r.mask |= m }

// Mask returns the current kind mask.
func (r *Recorder) Mask() Mask { return r.mask }

// Record stores one event, overwriting the oldest when the ring is
// full. Callers are expected to gate on Wants; Record itself is
// unconditional (and nil-safe). Once the recorder knows the event's
// names, recording allocates nothing but arena growth.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.put(&ev, ev.Val)
	if t := r.tap.Load(); t != nil {
		(*t)(ev, r.head-1)
	}
}

// RecordPayload is Record with the payload given as bytes, which are
// copied into the recorder; ev.Val is ignored. A producer rendering
// payloads into a reused buffer records without allocating.
func (r *Recorder) RecordPayload(ev Event, val []byte) {
	if r == nil {
		return
	}
	r.put(&ev, unsafe.String(unsafe.SliceData(val), len(val)))
	if t := r.tap.Load(); t != nil {
		ev.Val = string(val)
		(*t)(ev, r.head-1)
	}
}

// put writes ev with payload val into the next slot, releasing the
// payload of the event it overwrites.
func (r *Recorder) put(ev *Event, val string) {
	st := r.st
	s := &r.ring[r.next]
	if r.next++; r.next == len(r.ring) {
		r.next = 0
	}
	if r.head >= uint64(len(r.ring)) && s.hasVal {
		st.dropVal()
	}
	if len(val) > 0 {
		st.pushVal(val)
	}
	*s = slot{
		at: ev.At, arg: ev.Arg, arg2: ev.Arg2, pe: ev.PE, link: ev.Link,
		actor: st.nameID(ev.Actor), other: st.nameID(ev.Other), port: st.nameID(ev.Port),
		kind: ev.Kind, hasVal: len(val) > 0,
	}
	r.head++
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

// each calls fn for the retained events from sequence from on, oldest
// first, until fn returns false or n events were passed (n < 0: no
// limit). from must be retained. The events' payloads are copied out of
// the arena as one string, and every Val is a substring of it: a read
// allocates once for all its payloads, and a caller that keeps one Val
// keeps that read's copy alive.
func (r *Recorder) each(from uint64, n int, fn func(Event) bool) {
	st := r.st
	seq, pos := r.head-uint64(r.Len()), st.valOff
	for ; seq < from; seq++ {
		if r.slot(seq).hasVal {
			pos += 4 + st.valLen(pos)
		}
	}
	last, end := r.head, st.valEnd
	if n >= 0 && from+uint64(n) < r.head {
		last, end = from+uint64(n), pos
		for i := from; i < last; i++ {
			if r.slot(i).hasVal {
				end += 4 + st.valLen(end)
			}
		}
	}
	a, b := st.span(pos, end-pos)
	vals := valString(a, b)
	for off := 0; seq < last; seq++ {
		s := r.slot(seq)
		ev := Event{
			At: s.at, Kind: s.kind, PE: s.pe, Link: s.link, Arg: s.arg, Arg2: s.arg2,
			Actor: st.names[s.actor], Other: st.names[s.other], Port: st.names[s.port],
		}
		if s.hasVal {
			size := int(vals[off]) | int(vals[off+1])<<8 | int(vals[off+2])<<16 | int(vals[off+3])<<24
			ev.Val = vals[off+4 : off+4+size]
			off += 4 + size
		}
		if !fn(ev) {
			return
		}
	}
}

// slot returns the slot of the retained event with sequence seq.
func (r *Recorder) slot(seq uint64) *slot { return &r.ring[seq%uint64(len(r.ring))] }

// Snapshot copies the retained events in chronological order.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, r.Len())
	r.Range(func(ev Event) bool {
		out = append(out, ev)
		return true
	})
	return out
}

// Range calls fn for every retained event in chronological order
// without copying the ring; it stops early when fn returns false.
// Like Snapshot, it must run on the goroutine that owns the kernel —
// the web layer calls it from inside a session's serialized query.
func (r *Recorder) Range(fn func(Event) bool) {
	if r == nil || r.st == nil {
		return
	}
	r.each(r.head-uint64(r.Len()), -1, fn)
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
	out := make([]Event, 0, n)
	r.each(from, n, func(ev Event) bool {
		out = append(out, ev)
		return true
	})
	return out, from
}

// Reset discards all retained events (the ring keeps its capacity).
func (r *Recorder) Reset() {
	if r.st != nil {
		r.st.reset()
	}
	r.head, r.next = 0, 0
}

// Release ends the recorder's life and hands its storage to the next
// recorder of the same capacity. Call it only once nothing records into
// or reads from the recorder any more: its kernel is shut down and every
// view of it (CLI, web tap, checkpoint capture) is gone. A released
// recorder is empty with capacity 0, and recording into it panics
// rather than writing into storage another recorder now owns. Release is
// idempotent and nil-safe.
func (r *Recorder) Release() {
	if r == nil || r.st == nil {
		return
	}
	st := r.st
	r.st, r.ring, r.head, r.next = nil, nil, 0, 0
	putStorage(st)
}
