package lowdbg

import (
	"fmt"
	"sort"

	"dfdbg/internal/filterc"
	"dfdbg/internal/sim"
)

// BpKind distinguishes breakpoint flavours.
type BpKind int

const (
	// BpFunc triggers at a function symbol's entry (and optionally at its
	// return, via OnReturn — the "finish breakpoint" mechanism).
	BpFunc BpKind = iota
	// BpLine triggers at a source line.
	BpLine
)

func (k BpKind) String() string {
	switch k {
	case BpFunc:
		return "func"
	case BpLine:
		return "line"
	default:
		return fmt.Sprintf("BpKind(%d)", int(k))
	}
}

// Disposition is a breakpoint action's verdict.
type Disposition int

const (
	// DispContinue lets execution proceed (internal bookkeeping actions).
	DispContinue Disposition = iota
	// DispStop stops the world and reports to the driver.
	DispStop
)

// StopCtx is the context handed to breakpoint conditions and actions.
type StopCtx struct {
	Dbg      *Debugger
	Proc     *sim.Proc
	Fn       string // symbol (function breakpoints) or function name (line)
	Args     []Arg
	Ret      any // return value for finish actions
	IsReturn bool
	Pos      filterc.Pos
	Frame    *filterc.Frame // current frame for line breakpoints

	// StopNote lets an action that returns DispStop set the announced
	// stop reason (the dataflow layer's "[Stopped after receiving token
	// from `pipe::Red2PipeCbMB_in']" messages).
	StopNote string
}

// Breakpoint is one planted breakpoint.
type Breakpoint struct {
	ID        int
	Kind      BpKind
	Sym       string // BpFunc: target symbol
	File      string // BpLine
	Line      int    // BpLine
	Enabled   bool
	Temporary bool // auto-delete after the first stop
	// Internal breakpoints belong to the dataflow layer: they run their
	// Action silently and never announce as plain breakpoints.
	Internal bool
	// IsData marks data-exchange breakpoints, which the paper's
	// mitigation option 1 disables wholesale (DataBreakpointsEnabled).
	IsData   bool
	HitCount int
	// Condition, when set, must return true for the breakpoint to apply.
	Condition func(*StopCtx) bool
	// Action runs at the trigger point; its disposition decides whether
	// to stop. nil means "stop" for user breakpoints.
	Action func(*StopCtx) Disposition
	// OnReturn, when set on a BpFunc, runs at the function's return with
	// ctx.Ret filled — a finish breakpoint.
	OnReturn func(*StopCtx) Disposition
	// Note is a human-readable label shown in breakpoint listings.
	Note string
}

// loc names where the breakpoint sits: its symbol, or file:line.
func (b *Breakpoint) loc() string {
	if b.Kind == BpLine {
		return lineKey(b.File, b.Line)
	}
	return b.Sym
}

func (b *Breakpoint) String() string {
	attrs := ""
	if !b.Enabled {
		attrs += " (disabled)"
	}
	if b.Temporary {
		attrs += " (temporary)"
	}
	if b.Internal {
		attrs += " (internal)"
	}
	note := ""
	if b.Note != "" {
		note = " — " + b.Note
	}
	return fmt.Sprintf("#%d %s %s hits=%d%s%s", b.ID, b.Kind, b.loc(), b.HitCount, attrs, note)
}

// BreakFunc plants a user-visible breakpoint at a function symbol's
// entry. The symbol must exist in the debug table when one is attached.
func (d *Debugger) BreakFunc(sym string) (*Breakpoint, error) {
	if d.Syms != nil && d.Syms.Lookup(sym) == nil {
		return nil, fmt.Errorf("lowdbg: no symbol %q in the debug information", sym)
	}
	bp := &Breakpoint{Kind: BpFunc, Sym: sym, Enabled: true}
	d.insertBp(bp)
	return bp, nil
}

// BreakFuncInternal plants an internal function breakpoint carrying the
// dataflow layer's action (and optional finish action). Internal
// breakpoints skip symbol-table validation: the dataflow layer targets
// the framework API surface directly.
func (d *Debugger) BreakFuncInternal(sym string, action func(*StopCtx) Disposition,
	onReturn func(*StopCtx) Disposition) *Breakpoint {
	bp := &Breakpoint{
		Kind: BpFunc, Sym: sym, Enabled: true, Internal: true,
		Action: action, OnReturn: onReturn,
	}
	d.insertBp(bp)
	return bp
}

// BreakLine plants a breakpoint at file:line, sliding forward to the
// nearest executable statement as GDB does.
func (d *Debugger) BreakLine(file string, line int) (*Breakpoint, error) {
	lt := d.Syms.LineTableFor(file)
	stmt, _, ok := lt.NearestStmt(line)
	if !ok {
		return nil, fmt.Errorf("lowdbg: no statement at or after %s:%d", file, line)
	}
	bp := &Breakpoint{Kind: BpLine, File: file, Line: stmt, Enabled: true}
	d.insertBp(bp)
	return bp, nil
}

// BreakLineTemporary plants a one-shot line breakpoint (step_both uses
// these at both ends of a link).
func (d *Debugger) BreakLineTemporary(file string, line int) (*Breakpoint, error) {
	bp, err := d.BreakLine(file, line)
	if err != nil {
		return nil, err
	}
	bp.Temporary = true
	return bp, nil
}

func (d *Debugger) insertBp(bp *Breakpoint) {
	d.nextBpID++
	bp.ID = d.nextBpID
	d.bps[bp.ID] = bp
	switch bp.Kind {
	case BpFunc:
		d.funcBPs[bp.Sym] = append(d.funcBPs[bp.Sym], bp)
		d.armedFunc++
	case BpLine:
		key := lineKey(bp.File, bp.Line)
		d.lineBPs[key] = append(d.lineBPs[key], bp)
		d.armedStmt++
	}
	d.armChanged()
}

func lineKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// SetBreakEnabled enables or disables a breakpoint. Toggle through here
// rather than the field, so the arm watchers learn whether it can stop.
func (d *Debugger) SetBreakEnabled(bp *Breakpoint, on bool) {
	bp.Enabled = on
	d.armChanged()
}

// DeleteBp removes a user breakpoint by id. Internal breakpoints (the
// dataflow layer's function breakpoints) are invisible to this path, as
// GDB's internal breakpoints are to `delete`.
func (d *Debugger) DeleteBp(id int) error {
	bp, ok := d.bps[id]
	if !ok || bp.Internal {
		return fmt.Errorf("lowdbg: no breakpoint #%d", id)
	}
	d.removeBp(bp)
	return nil
}

// DeleteInternalBp removes an internal breakpoint (dataflow-layer use).
func (d *Debugger) DeleteInternalBp(bp *Breakpoint) {
	d.removeBp(bp)
}

func (d *Debugger) removeBp(bp *Breakpoint) {
	if _, ok := d.bps[bp.ID]; !ok {
		return // already removed (e.g. a temporary hit twice in one scan)
	}
	delete(d.bps, bp.ID)
	switch bp.Kind {
	case BpFunc:
		d.funcBPs[bp.Sym] = removeFrom(d.funcBPs[bp.Sym], bp)
		if len(d.funcBPs[bp.Sym]) == 0 {
			delete(d.funcBPs, bp.Sym)
		}
		d.armedFunc--
	case BpLine:
		key := lineKey(bp.File, bp.Line)
		d.lineBPs[key] = removeFrom(d.lineBPs[key], bp)
		if len(d.lineBPs[key]) == 0 {
			delete(d.lineBPs, key)
		}
		d.armedStmt--
	}
	d.armChanged()
}

func removeFrom(s []*Breakpoint, bp *Breakpoint) []*Breakpoint {
	for i, b := range s {
		if b == bp {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Breakpoints lists the user-visible breakpoints by id (internal
// dataflow-layer breakpoints are hidden, as in GDB).
func (d *Debugger) Breakpoints() []*Breakpoint {
	out := make([]*Breakpoint, 0, len(d.bps))
	for _, bp := range d.bps {
		if !bp.Internal {
			out = append(out, bp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AllBreakpoints lists every breakpoint including internal ones (used by
// maintenance/diagnostic surfaces).
func (d *Debugger) AllBreakpoints() []*Breakpoint {
	out := make([]*Breakpoint, 0, len(d.bps))
	for _, bp := range d.bps {
		out = append(out, bp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Watchpoint watches a registered data object for change (a software
// watchpoint: checked at every statement boundary).
type Watchpoint struct {
	ID       int
	Sym      string
	Enabled  bool
	HitCount int
	val      *filterc.Value
	old      filterc.Value
}

func (w *Watchpoint) String() string {
	return fmt.Sprintf("watch#%d %s hits=%d", w.ID, w.Sym, w.HitCount)
}

// Watch plants a watchpoint on a registered object symbol.
func (d *Debugger) Watch(sym string) (*Watchpoint, error) {
	v, ok := d.objects[sym]
	if !ok {
		return nil, fmt.Errorf("lowdbg: no data object %q registered", sym)
	}
	d.nextBpID++
	w := &Watchpoint{ID: d.nextBpID, Sym: sym, Enabled: true, val: v, old: v.Clone()}
	d.watchpoints = append(d.watchpoints, w)
	d.armedStmt++
	d.armChanged()
	return w, nil
}

// SetWatchEnabled enables or disables a watchpoint, notifying the arm
// watchers as SetBreakEnabled does.
func (d *Debugger) SetWatchEnabled(w *Watchpoint, on bool) {
	w.Enabled = on
	d.armChanged()
}

// Watchpoints lists planted watchpoints.
func (d *Debugger) Watchpoints() []*Watchpoint {
	out := make([]*Watchpoint, len(d.watchpoints))
	copy(out, d.watchpoints)
	return out
}

// DeleteWatch removes a watchpoint by id.
func (d *Debugger) DeleteWatch(id int) error {
	for i, w := range d.watchpoints {
		if w.ID == id {
			d.watchpoints = append(d.watchpoints[:i], d.watchpoints[i+1:]...)
			d.armedStmt--
			d.armChanged()
			return nil
		}
	}
	return fmt.Errorf("lowdbg: no watchpoint #%d", id)
}
