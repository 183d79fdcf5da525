// Package core implements the paper's contribution: the dataflow-aware
// layer of the interactive debugger. It attaches to the low-level
// debugger (lowdbg, the GDB stand-in) and reconstructs the dataflow
// application's structure and state purely from intercepted framework
// API calls — function breakpoints with semantic actions, plus finish
// breakpoints for return values — without ever touching the framework:
// this package deliberately does not import internal/pedf (enforced by a
// test), mirroring the paper's two-level architecture (Figure 3).
//
// The internal representation follows Section V:
//
//   - Actor objects for filters, controllers and modules, with their
//     execution context and inbound/outbound connections;
//   - Connection objects, one per data dependency endpoint, producing
//     and consuming Token objects on intercepted push/pop events;
//   - Link objects binding an outgoing connection to an incoming one,
//     holding the Tokens in flight;
//   - Token objects whose state corresponds to the logical implications
//     of runtime events, carrying their hop-by-hop path across actors.
package core

import (
	"fmt"
	"strings"

	"dfdbg/internal/filterc"
	"dfdbg/internal/sim"
)

// ActorKind classifies reconstructed actors.
type ActorKind int

const (
	// KindFilter is a data-processing actor.
	KindFilter ActorKind = iota
	// KindController is a module's scheduling actor.
	KindController
	// KindModule is a hierarchical composite.
	KindModule
	// KindEnv is the host-side environment pseudo-actor.
	KindEnv
)

func (k ActorKind) String() string {
	switch k {
	case KindFilter:
		return "filter"
	case KindController:
		return "controller"
	case KindModule:
		return "module"
	case KindEnv:
		return "env"
	default:
		return fmt.Sprintf("ActorKind(%d)", int(k))
	}
}

// SchedState is the scheduling state reconstructed from controller
// events (paper contribution #2).
type SchedState int

const (
	// SchedIdle: never scheduled, or between steps.
	SchedIdle SchedState = iota
	// SchedScheduled: ACTOR_START observed, WORK not yet entered.
	SchedScheduled
	// SchedRunning: inside (or between) WORK firings.
	SchedRunning
	// SchedSynced: finished its step after an ACTOR_SYNC request.
	SchedSynced
)

func (s SchedState) String() string {
	switch s {
	case SchedIdle:
		return "not scheduled"
	case SchedScheduled:
		return "ready"
	case SchedRunning:
		return "running"
	case SchedSynced:
		return "finished step"
	default:
		return fmt.Sprintf("SchedState(%d)", int(s))
	}
}

// Behavior is the developer-provided communication pattern annotation
// that lets the debugger follow a token across a filter (Section VI-D:
// "the debugger cannot automatically figure it out; the developer has to
// provide it manually").
type Behavior int

const (
	// BehaviorUnknown disables cross-actor token linkage.
	BehaviorUnknown Behavior = iota
	// BehaviorMap: each produced token derives from the tokens consumed
	// in the same firing (1-in-1-out pipelines).
	BehaviorMap
	// BehaviorSplitter: one consumed token fans out to every outbound
	// interface (the paper's `filter red configure splitter`).
	BehaviorSplitter
	// BehaviorJoiner: produced tokens derive from all inputs of the firing.
	BehaviorJoiner
)

func (b Behavior) String() string {
	switch b {
	case BehaviorMap:
		return "map"
	case BehaviorSplitter:
		return "splitter"
	case BehaviorJoiner:
		return "joiner"
	default:
		return "unknown"
	}
}

// ParseBehavior resolves the CLI spelling of a behavior.
func ParseBehavior(s string) (Behavior, error) {
	switch strings.ToLower(s) {
	case "map":
		return BehaviorMap, nil
	case "splitter":
		return BehaviorSplitter, nil
	case "joiner":
		return BehaviorJoiner, nil
	case "unknown":
		return BehaviorUnknown, nil
	default:
		return 0, fmt.Errorf("core: unknown behavior %q (want map, splitter or joiner)", s)
	}
}

// Hop is one traversal of a link by a token.
type Hop struct {
	From  string // producing actor
	To    string // consuming actor
	Iface string // destination connection's qualified name
	Type  string // payload type name
	Val   filterc.Value
	Seq   uint64 // production index on the link
	At    sim.Time
}

func (h Hop) String() string {
	return fmt.Sprintf("%s -> %s (%s) %s", h.From, h.To, h.Type, h.Val.String())
}

// Token is the debugger's logical token object. It is not associated
// with any framework object: it exists purely as the consequence of
// intercepted runtime events.
type Token struct {
	ID      uint64
	Hop     Hop      // the traversal that created this token object
	Origins []*Token // provenance across the producing actor (behavior-based)
	Popped  bool     // consumed by the destination actor
}

// Path walks the provenance chain: the token itself first, then the
// token(s) it was derived from, transitively — the paper's
// `filter pipe info last_token` output:
//
//	#1 red -> pipe (CbCrMB_t) {Add=0x145D,...}
//	#2 bh -> red (U32) 127
func (t *Token) Path() []Hop {
	var out []Hop
	seen := make(map[uint64]bool)
	cur := t
	for cur != nil && !seen[cur.ID] {
		seen[cur.ID] = true
		out = append(out, cur.Hop)
		if len(cur.Origins) == 0 {
			break
		}
		cur = cur.Origins[0] // primary provenance
	}
	return out
}

// FormatPath renders the provenance chain in the paper's format.
func (t *Token) FormatPath() string {
	var b strings.Builder
	for i, h := range t.Path() {
		fmt.Fprintf(&b, "#%d %s\n", i+1, h.String())
	}
	return b.String()
}

// Connection is one data-dependency endpoint of an actor.
type Connection struct {
	Actor *Actor
	Name  string
	Dir   string // "input" or "output"
	Type  string
	Link  *LinkInfo

	// Recording enables the per-interface token content history
	// (`iface X record`).
	Recording bool
	Recorded  []*Token
	// RecordCap bounds the history ring (the paper's memory concern).
	RecordCap int

	// Received / Sent count tokens through this endpoint.
	Received uint64
	Sent     uint64

	// LastToken is the most recent token through this endpoint.
	LastToken *Token

	// qualified and inFlight cache Qualified() and the actor's
	// "push:port"/"pop:port" label while a call on this endpoint is in
	// flight, which the data path would otherwise rebuild per token.
	qualified, inFlight string
}

// Qualified returns "actor::port", the paper's interface naming.
func (c *Connection) Qualified() string {
	if c.qualified != "" {
		return c.qualified
	}
	return c.Actor.Name + "::" + c.Name
}

func (c *Connection) String() string {
	return fmt.Sprintf("%s (%s %s)", c.Qualified(), c.Dir, c.Type)
}

// record appends to the bounded history when recording is enabled.
func (c *Connection) record(t *Token) {
	if !c.Recording {
		return
	}
	c.Recorded = append(c.Recorded, t)
	if c.RecordCap > 0 && len(c.Recorded) > c.RecordCap {
		c.Recorded = c.Recorded[len(c.Recorded)-c.RecordCap:]
	}
}

// LinkInfo binds an outgoing connection to an incoming one and holds the
// tokens currently in flight.
type LinkInfo struct {
	ID     int64
	Src    *Connection
	Dst    *Connection
	Kind   string // "data", "control", "dma"
	Tokens []*Token

	TotalPushed uint64
	TotalPopped uint64
}

// Occupancy returns the number of tokens currently in flight — what
// Figure 4 displays on the arcs.
func (l *LinkInfo) Occupancy() int { return len(l.Tokens) }

func (l *LinkInfo) String() string {
	return fmt.Sprintf("link#%d %s -> %s (%s, %d tokens)",
		l.ID, l.Src.Qualified(), l.Dst.Qualified(), l.Kind, len(l.Tokens))
}

// Actor is a reconstructed filter, controller, module or environment.
type Actor struct {
	Name   string
	Kind   ActorKind
	Module string // owning module name ("" for modules and env)

	Inputs  []*Connection
	Outputs []*Connection

	// Scheduling state (contribution #2).
	State         SchedState
	Firings       uint64
	syncRequested bool

	// Proc is the execution context, learned from the first intercepted
	// event attributed to this actor.
	Proc *sim.Proc

	// Behavior enables token-path tracking across this actor.
	Behavior Behavior

	// firingInputs are the tokens consumed in the current firing,
	// feeding provenance of the tokens it produces.
	firingInputs []*Token

	// LastToken is the most recent token received on any input.
	LastToken *Token

	// inFlightOp is "pop:iface"/"push:iface" between a data-exchange
	// call's entry and return — the debugger's view of "blocked".
	inFlightOp string
}

// In returns an input connection by name (nil if absent).
func (a *Actor) In(name string) *Connection {
	for _, c := range a.Inputs {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Out returns an output connection by name (nil if absent).
func (a *Actor) Out(name string) *Connection {
	for _, c := range a.Outputs {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// BlockedOn returns the in-flight link operation ("" when none).
func (a *Actor) BlockedOn() string { return a.inFlightOp }

func (a *Actor) String() string {
	return fmt.Sprintf("%s %s (%s, %d firings)", a.Kind, a.Name, a.State, a.Firings)
}

// ModuleInfo tracks a module's step protocol state.
type ModuleInfo struct {
	Actor   *Actor
	Parent  string
	Filters []string // member filter names in registration order
	Step    uint64
	InStep  bool
	Done    bool
}
