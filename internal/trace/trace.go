// Package trace is the post-mortem "execution traces analysis"
// comparator the paper's qualitative analysis mentions: instead of
// stopping interactively, a trace session runs the application to
// completion and answers questions offline.
//
// Since the observability layer (internal/obs) landed, trace no longer
// maintains its own recording path through function breakpoints: it is a
// read-only *view* over the kernel's obs event ring, translating the
// unified event vocabulary into the trace-analysis event model. One
// recording path, two consumers (live metrics/profiles and this
// post-mortem comparator).
package trace

import (
	"fmt"
	"strings"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
)

// EventKind classifies recorded events.
type EventKind int

const (
	// EvPush is a token production on a link.
	EvPush EventKind = iota
	// EvPop is a token consumption from a link.
	EvPop
	// EvWork is a WORK method invocation.
	EvWork
	// EvSched is a scheduling operation (start/sync/step).
	EvSched
)

func (k EventKind) String() string {
	switch k {
	case EvPush:
		return "push"
	case EvPop:
		return "pop"
	case EvWork:
		return "work"
	case EvSched:
		return "sched"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one recorded runtime event.
type Event struct {
	At    sim.Time
	Kind  EventKind
	Fn    string // API symbol
	Actor string // acting side (producer for push, consumer for pop)
	Other string // peer actor ("" when not applicable)
	Port  string
	Link  int64
	Value string // rendered payload ("" for sched)
}

func (e Event) String() string {
	s := fmt.Sprintf("%-12s %-5s %s", e.At, e.Kind, e.Actor)
	if e.Port != "" {
		s += "::" + e.Port
	}
	if e.Other != "" {
		s += " <-> " + e.Other
	}
	if e.Value != "" {
		s += " " + e.Value
	}
	return s
}

// Recorder is a trace-analysis view over an obs event ring.
type Recorder struct {
	rec *obs.Recorder
	// workSyms, when non-empty, selects which actors' WORK firings count
	// as EvWork (the recorder learns the mangled symbols from the debug
	// information, like the interactive debugger). Empty = none, matching
	// the pre-obs behaviour where WORK recording was opt-in.
	workSyms map[string]bool
}

// Attach ensures the debugger's kernel has an observability recorder,
// enables the dataflow event kinds plus payload rendering (the
// comparator needs token values), and returns a trace view over it.
func Attach(low *lowdbg.Debugger) *Recorder {
	rec := low.K.Observer()
	if rec == nil {
		rec = obs.NewRecorder(0)
		low.K.SetObserver(rec)
	}
	rec.EnableKinds(obs.MaskDataflow)
	rec.SetPayloads(true)
	return View(rec)
}

// View wraps an existing obs recorder without touching its mask.
func View(rec *obs.Recorder) *Recorder {
	return &Recorder{rec: rec, workSyms: make(map[string]bool)}
}

// Obs returns the underlying observability recorder.
func (r *Recorder) Obs() *obs.Recorder { return r.rec }

// AttachWork selects the mangled WORK symbols whose firings appear as
// EvWork events (the low parameter is kept for call-site compatibility;
// the selection is purely a view filter now).
func (r *Recorder) AttachWork(_ *lowdbg.Debugger, workSyms []string) {
	for _, sym := range workSyms {
		r.workSyms[sym] = true
	}
}

// Events translates the retained obs events into trace events.
func (r *Recorder) Events() []Event {
	var out []Event
	r.each(func(e Event) { out = append(out, e) })
	return out
}

// each calls fn for every retained obs event that translates into a
// trace event, oldest first, folding over the ring without copying it.
func (r *Recorder) each(fn func(Event)) {
	r.rec.Range(func(ev obs.Event) bool {
		if e, ok := r.translate(ev); ok {
			fn(e)
		}
		return true
	})
}

// translate maps one obs event into the trace-analysis model, reporting
// false for kinds (and WORK firings of unselected actors) the model
// leaves out.
func (r *Recorder) translate(ev obs.Event) (Event, bool) {
	at := sim.Time(ev.At)
	switch ev.Kind {
	case obs.KPush:
		return Event{
			At: at, Kind: EvPush, Fn: "pedf_link_push",
			Actor: ev.Actor, Other: ev.Other, Port: ev.Port,
			Link: int64(ev.Link), Value: ev.Val,
		}, true
	case obs.KPop:
		return Event{
			At: at, Kind: EvPop, Fn: "pedf_link_pop",
			Actor: ev.Actor, Other: ev.Other, Port: ev.Port,
			Link: int64(ev.Link), Value: ev.Val,
		}, true
	case obs.KFireBegin:
		if fn := dbginfo.MangleFilterWork(ev.Actor); r.workSyms[fn] {
			return Event{At: at, Kind: EvWork, Fn: fn, Actor: ev.Actor}, true
		}
	case obs.KCtlBegin:
		if fn := dbginfo.MangleControllerWork(ev.Other); r.workSyms[fn] {
			return Event{At: at, Kind: EvWork, Fn: fn, Actor: ev.Actor}, true
		}
	case obs.KActorStart:
		return Event{At: at, Kind: EvSched, Fn: "pedf_actor_start", Actor: ev.Actor}, true
	case obs.KActorSync:
		return Event{At: at, Kind: EvSched, Fn: "pedf_actor_sync", Actor: ev.Actor}, true
	case obs.KStepBegin:
		return Event{At: at, Kind: EvSched, Fn: "pedf_step_begin", Actor: ev.Actor}, true
	case obs.KStepEnd:
		return Event{At: at, Kind: EvSched, Fn: "pedf_step_end", Actor: ev.Actor}, true
	}
	return Event{}, false
}

// CountByKind tallies events per kind.
func (r *Recorder) CountByKind() map[EventKind]int {
	out := make(map[EventKind]int)
	r.each(func(e Event) { out[e.Kind]++ })
	return out
}

// LinkBalance returns pushes minus pops per link id — a stalled link
// shows a growing positive balance, which is how trace analysis locates
// rate mismatches offline.
func (r *Recorder) LinkBalance() map[int64]int {
	out := make(map[int64]int)
	r.each(func(e Event) {
		switch e.Kind {
		case EvPush:
			out[e.Link]++
		case EvPop:
			out[e.Link]--
		}
	})
	return out
}

// ActorActivity returns per-actor event counts.
func (r *Recorder) ActorActivity() map[string]int {
	out := make(map[string]int)
	r.each(func(e Event) {
		if e.Actor != "" {
			out[e.Actor]++
		}
	})
	return out
}

// Dump renders the last n events (all if n <= 0).
func (r *Recorder) Dump(n int) string {
	skip := 0
	if n > 0 {
		total := 0
		r.each(func(Event) { total++ })
		skip = max(total-n, 0)
	}
	var b strings.Builder
	r.each(func(e Event) {
		if skip > 0 {
			skip--
			return
		}
		b.WriteString(e.String())
		b.WriteByte('\n')
	})
	return b.String()
}
