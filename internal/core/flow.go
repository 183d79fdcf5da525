package core

import (
	"fmt"
	"regexp"
	"strings"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
)

// SetRecording toggles token-content recording on a qualified interface
// (`iface hwcfg::pipe_MbType_out record`). Recording is opt-in because a
// communication-intensive filter can generate more tokens than is useful
// to keep (Section VI-D).
func (d *Debugger) SetRecording(qualified string, on bool) error {
	conn, err := d.Connection(qualified)
	if err != nil {
		return err
	}
	conn.Recording = on
	if !on {
		conn.recorded = nil
	}
	return nil
}

// RecordedTokens returns the recorded history of an interface
// (`iface hwcfg::pipe_MbType_out print`).
func (d *Debugger) RecordedTokens(qualified string) ([]*Token, error) {
	conn, err := d.Connection(qualified)
	if err != nil {
		return nil, err
	}
	refs := conn.history()
	out := make([]*Token, len(refs))
	for i, r := range refs {
		out[i] = d.token(r)
	}
	return out, nil
}

// FormatRecorded renders the recorded history in the paper's format:
//
//	#1 (U16) 5
//	#2 (U16) 10
//	#3 (U16) 15
func (d *Debugger) FormatRecorded(qualified string) (string, error) {
	conn, err := d.Connection(qualified)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for i, r := range conn.history() {
		h := d.hop(r)
		fmt.Fprintf(&b, "#%d (%s) %s\n", i+1, h.Type, h.Val.String())
	}
	return b.String(), nil
}

// ConfigureBehavior implements `filter red configure splitter`: the
// developer-supplied communication pattern that enables token-path
// tracking across the filter.
func (d *Debugger) ConfigureBehavior(actor string, b Behavior) error {
	a := d.actors[actor]
	if a == nil {
		return fmt.Errorf("core: no actor %q", actor)
	}
	a.Behavior = b
	return nil
}

// LastToken implements `filter X info last_token`: the most recent token
// received by the actor, with its provenance path.
func (d *Debugger) LastToken(actor string) (*Token, error) {
	a := d.actors[actor]
	if a == nil {
		return nil, fmt.Errorf("core: no actor %q", actor)
	}
	if a.lastTok == 0 {
		return nil, fmt.Errorf("core: %s has not received any token yet", actor)
	}
	return a.LastToken(), nil
}

// StepBoth implements the `step_both` command for an output interface:
// it plants one-shot catchpoints at both ends of the link — after the
// receiving input interface consumes the token and after the sending
// output interface produces it. The order of the two stops is
// execution-dependent, as in the paper.
func (d *Debugger) StepBoth(outQualified string) error {
	conn, err := d.Connection(outQualified)
	if err != nil {
		return err
	}
	if conn.Dir != "output" {
		return fmt.Errorf("core: step_both needs an output interface, %s is an %s",
			outQualified, conn.Dir)
	}
	if conn.Link == nil {
		return fmt.Errorf("core: %s is not bound to a link", outQualified)
	}
	dst := conn.Link.Dst
	recv := &Catchpoint{Kind: CatchReceive, Actor: dst.Actor.Name, Spec: dst.Name + "=1",
		OneShot: true, conds: []*tokenCond{{conn: dst, need: 1, base: dst.Received}}}
	d.addCatch(recv)
	send := &Catchpoint{Kind: CatchSend, Actor: conn.Actor.Name, Spec: conn.Name + "=1",
		OneShot: true, conds: []*tokenCond{{conn: conn, need: 1, base: conn.Sent}}}
	d.addCatch(send)
	d.announce("[Temporary breakpoint inserted after input interface `%s']", dst.Qualified())
	d.announce("[Temporary breakpoint inserted after output interface `%s']", conn.Qualified())
	return nil
}

// pedfIORef extracts the first `pedf.io.NAME` reference of a source line.
var pedfIORef = regexp.MustCompile(`pedf\.io\.([A-Za-z_][A-Za-z0-9_]*)`)

// StepBothAuto infers the dataflow assignment of the current stop
// position — the paper's argument-less `step_both` issued while stopped
// right before a `pedf.io.X[...] = ...` line — and delegates to StepBoth.
func (d *Debugger) StepBothAuto(ev *lowdbg.StopEvent) error {
	if ev == nil || ev.Proc == nil {
		return fmt.Errorf("core: step_both needs a stopped execution context")
	}
	a := d.actorByProc[ev.Proc]
	if a == nil {
		return fmt.Errorf("core: the stopped process is not a dataflow actor")
	}
	in := d.Low.InterpFor(ev.Proc)
	if in == nil || in.CurrentFrame() == nil {
		return fmt.Errorf("core: no source context for %s", a.Name)
	}
	file := in.Prog.File
	line := in.CurrentFrame().Line
	text := d.Low.SourceLine(file, line)
	m := pedfIORef.FindStringSubmatch(text)
	if m == nil {
		return fmt.Errorf("core: no dataflow assignment at %s:%d (%q)", file, line, strings.TrimSpace(text))
	}
	iface := m[1]
	if a.Out(iface) == nil {
		return fmt.Errorf("core: %s has no output interface %q at %s:%d", a.Name, iface, file, line)
	}
	return d.StepBoth(a.Name + "::" + iface)
}

// ---- altering the normal execution (Section III) ----

// InjectToken inserts a token on the link feeding the given input
// interface (untying deadlocks, inserting corner-case tokens). The model
// is updated to match, flagged as debugger-made.
func (d *Debugger) InjectToken(inQualified string, v filterc.Value) error {
	conn, err := d.Connection(inQualified)
	if err != nil {
		return err
	}
	if conn.Link == nil {
		return fmt.Errorf("core: %s is not bound", inQualified)
	}
	if _, err := d.Low.CallTarget(tfLinkInject, conn.Link.ID, v); err != nil {
		return err
	}
	tok := d.addToken(conn.Link, v, fromDebugger)
	conn.Link.inflight = append(conn.Link.inflight, tok)
	d.announce("[Injected token %s on `%s']", v.String(), inQualified)
	return nil
}

// DropToken deletes the i-th pending token of the link feeding the
// given input interface.
func (d *Debugger) DropToken(inQualified string, i int) error {
	conn, err := d.Connection(inQualified)
	if err != nil {
		return err
	}
	if conn.Link == nil {
		return fmt.Errorf("core: %s is not bound", inQualified)
	}
	if _, err := d.Low.CallTarget(tfLinkDrop, conn.Link.ID, int64(i)); err != nil {
		return err
	}
	if l := conn.Link; i >= 0 && i < len(l.inflight) {
		l.inflight = append(l.inflight[:i], l.inflight[i+1:]...)
	}
	d.announce("[Dropped token %d from `%s']", i, inQualified)
	return nil
}

// ReplaceToken overwrites the payload of the i-th pending token of the
// link feeding the given input interface.
func (d *Debugger) ReplaceToken(inQualified string, i int, v filterc.Value) error {
	conn, err := d.Connection(inQualified)
	if err != nil {
		return err
	}
	if conn.Link == nil {
		return fmt.Errorf("core: %s is not bound", inQualified)
	}
	if _, err := d.Low.CallTarget(tfLinkReplace, conn.Link.ID, int64(i), v); err != nil {
		return err
	}
	if l := conn.Link; i >= 0 && i < len(l.inflight) {
		d.tokens.setValue(l, l.inflight[i], v)
	}
	d.announce("[Replaced token %d on `%s' with %s]", i, inQualified, v.String())
	return nil
}

// PeekToken reads the i-th pending token from the framework memory
// (two-level access: "it could be directly read from the framework
// memory").
func (d *Debugger) PeekToken(inQualified string, i int) (filterc.Value, error) {
	conn, err := d.Connection(inQualified)
	if err != nil {
		return filterc.Value{}, err
	}
	if conn.Link == nil {
		return filterc.Value{}, fmt.Errorf("core: %s is not bound", inQualified)
	}
	out, err := d.Low.CallTarget(tfLinkPeek, conn.Link.ID, int64(i))
	if err != nil {
		return filterc.Value{}, err
	}
	v, ok := out.(filterc.Value)
	if !ok {
		return filterc.Value{}, fmt.Errorf("core: unexpected peek result %T", out)
	}
	return v, nil
}

// VerifyOccupancy compares the reconstructed occupancy of every link
// against the framework's ground truth (read through the target-call
// surface). It returns the qualified names of mismatching links — the
// experiment F3 fidelity check.
func (d *Debugger) VerifyOccupancy() ([]string, error) {
	var bad []string
	for _, l := range d.linkList {
		out, err := d.Low.CallTarget(tfLinkOccupancy, l.ID)
		if err != nil {
			return nil, err
		}
		truth, _ := out.(int64)
		if truth != int64(l.Occupancy()) {
			bad = append(bad, fmt.Sprintf("%s->%s: model=%d framework=%d",
				l.Src.Qualified(), l.Dst.Qualified(), l.Occupancy(), truth))
		}
	}
	return bad, nil
}

// ---- state inspection ----

// FilterInfo is the `info filters` row for one actor.
type FilterInfo struct {
	Name      string
	Kind      ActorKind
	Module    string
	State     SchedState
	Firings   uint64
	BlockedOn string // in-flight link operation, "" when none
	Line      int    // currently executed source line (0 if unknown)
}

// InfoFilters returns the state of every filter and controller
// (Section III: "details about the state of each actor should also be
// available, including the source-code line currently executed, and
// whether or not it is currently blocked").
func (d *Debugger) InfoFilters() []FilterInfo {
	out := make([]FilterInfo, 0, len(d.actorList))
	for _, a := range d.actorList {
		if a.Kind != KindFilter && a.Kind != KindController {
			continue
		}
		fi := FilterInfo{
			Name: a.Name, Kind: a.Kind, Module: a.Module,
			State: a.State, Firings: a.Firings, BlockedOn: a.inFlightOp,
		}
		if a.Proc != nil {
			if in := d.Low.InterpFor(a.Proc); in != nil {
				if fr := in.CurrentFrame(); fr != nil {
					fi.Line = fr.Line
				}
			}
		}
		out = append(out, fi)
	}
	return out
}

// FreezeActor withholds an actor's execution context from the scheduler
// — the paper's "let them block the other execution paths until a latter
// investigation" (Section III). The actor's process is known once it has
// executed at least one intercepted event.
func (d *Debugger) FreezeActor(name string) error {
	a := d.actors[name]
	if a == nil {
		return fmt.Errorf("core: no actor %q", name)
	}
	if a.Proc == nil {
		return fmt.Errorf("core: %s has no execution context yet (run until it first executes)", name)
	}
	a.Proc.Freeze()
	d.announce("[Execution path of `%s' frozen]", name)
	return nil
}

// ThawActor releases a frozen actor.
func (d *Debugger) ThawActor(name string) error {
	a := d.actors[name]
	if a == nil {
		return fmt.Errorf("core: no actor %q", name)
	}
	if a.Proc == nil {
		return fmt.Errorf("core: %s has no execution context", name)
	}
	a.Proc.Thaw()
	d.announce("[Execution path of `%s' released]", name)
	return nil
}

// ActorReport renders one actor's full dataflow state: scheduling,
// behaviour annotation, and per-connection token counts.
func (d *Debugger) ActorReport(name string) (string, error) {
	a := d.actors[name]
	if a == nil {
		return "", fmt.Errorf("core: no actor %q", name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s (module %s): %s, %d firings", a.Kind, a.Name, a.Module, a.State, a.Firings)
	if a.inFlightOp != "" {
		fmt.Fprintf(&b, ", blocked on %s", a.inFlightOp)
	}
	if a.Behavior != BehaviorUnknown {
		fmt.Fprintf(&b, ", behaviour %s", a.Behavior)
	}
	b.WriteByte('\n')
	for _, c := range a.Inputs {
		fmt.Fprintf(&b, "  in  %-24s received=%-5d", c.Name, c.Received)
		if c.Link != nil {
			fmt.Fprintf(&b, " pending=%-3d from %s", c.Link.Occupancy(), c.Link.Src.Qualified())
		}
		b.WriteByte('\n')
	}
	for _, c := range a.Outputs {
		fmt.Fprintf(&b, "  out %-24s sent=%-9d", c.Name, c.Sent)
		if c.Link != nil {
			fmt.Fprintf(&b, " pending=%-3d to %s", c.Link.Occupancy(), c.Link.Dst.Qualified())
		}
		b.WriteByte('\n')
	}
	if a.lastTok != 0 {
		fmt.Fprintf(&b, "  last token: %s\n", d.hop(a.lastTok).String())
	}
	return b.String(), nil
}

// DataSymbolFor resolves a filter's private-data or attribute name to
// its mangled debug symbol (for `filter X watch d` and two-level print).
func (d *Debugger) DataSymbolFor(actor, member string) (string, error) {
	if _, ok := d.actors[actor]; !ok {
		return "", fmt.Errorf("core: no actor %q", actor)
	}
	// Try the data scheme first, then the attribute scheme; accept
	// whichever the debug information knows.
	for _, sym := range []string{
		dbginfo.MangleFilterData(actor, member),
		dbginfo.MangleFilterAttr(actor, member),
	} {
		if _, ok := d.Low.Object(sym); ok {
			return sym, nil
		}
	}
	return "", fmt.Errorf("core: %s has no data or attribute %q", actor, member)
}

// SchedulingReport renders contribution #2's per-module view: which
// filters are ready, running, not scheduled or have finished the step.
func (d *Debugger) SchedulingReport(module string) (string, error) {
	mi, ok := d.modules[module]
	if !ok {
		return "", fmt.Errorf("core: no module %q", module)
	}
	var b strings.Builder
	status := "running"
	if mi.Done {
		status = "done"
	}
	fmt.Fprintf(&b, "module %s: step %d (%s)\n", module, mi.Step, status)
	for _, fn := range mi.Filters {
		a := d.actors[fn]
		if a == nil {
			continue
		}
		blocked := ""
		if a.inFlightOp != "" {
			blocked = " [blocked on " + a.inFlightOp + "]"
		}
		fmt.Fprintf(&b, "  %-16s %-14s firings=%d%s\n", a.Name, a.State.String(), a.Firings, blocked)
	}
	return b.String(), nil
}

// TokensReport lists every link with its current occupancy and totals —
// the "overview of the tokens currently available in the data links".
func (d *Debugger) TokensReport() string {
	var b strings.Builder
	for _, l := range d.linkList {
		fmt.Fprintf(&b, "%-40s %7s  held=%-3d pushed=%-5d popped=%d\n",
			l.Src.Qualified()+" -> "+l.Dst.Qualified(), "("+l.Kind+")",
			l.Occupancy(), l.TotalPushed, l.TotalPopped)
	}
	return b.String()
}
