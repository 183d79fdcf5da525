// Package lowdbg is the low-level interactive debugger the dataflow layer
// builds on — the stand-in for GDB (plus the CPU's breakpoint mechanism)
// in the paper's Figure 3 architecture.
//
// It owns the simulation kernel's run loop and provides:
//
//   - function breakpoints on (mangled) symbols, with optional attached
//     actions — the paper's "function breakpoints" that carry the semantic
//     definition of the operation they monitor;
//   - finish breakpoints catching a function's return value, the concept
//     the authors contributed to GDB's Python API;
//   - source-line breakpoints, single-step / next / finish execution
//     control at filterc statement granularity;
//   - software watchpoints on registered data objects;
//   - frame and variable inspection while the world is stopped.
//
// The target program (the PEDF runtime and the filterc interpreters)
// reports function entries/exits and statement executions to the
// debugger; with no breakpoints planted the fast path is a map lookup,
// and the intrusiveness experiments (P1) measure exactly this surface.
package lowdbg

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
)

// DatumKind says which field of a Datum holds its payload.
type DatumKind uint8

const (
	// NoDatum: no payload — an argument never written, or a return
	// hook called for a function that returns nothing.
	NoDatum DatumKind = iota
	// IntDatum: the payload is I.
	IntDatum
	// StringDatum: the payload is S.
	StringDatum
	// ValueDatum: the payload is V, a filterc value (a token or a
	// WORK method's return).
	ValueDatum
)

// Datum is one typed value crossing the function-breakpoint surface:
// an argument's payload or a function's return value. It is plain data
// with no interface, so the target writes it in place and the debugger
// reads it without boxing (DESIGN §12).
type Datum struct {
	Kind DatumKind
	I    int64
	S    string
	V    filterc.Value
}

// Val is the datum of a filterc value (a pop's or a WORK method's
// return).
func Val(v filterc.Value) Datum { return Datum{Kind: ValueDatum, V: v} }

// owned returns d with a value payload deep-copied, for a datum kept
// past the call that lent it. Scalars and strings are copied as they are.
func (d Datum) owned() Datum {
	if d.Kind == ValueDatum {
		d.V = d.V.Clone()
	}
	return d
}

// appendTo appends the payload rendered as fmt's %v renders the
// interface value ArgVal returns for it.
func (d Datum) appendTo(b []byte) []byte {
	switch d.Kind {
	case IntDatum:
		return strconv.AppendInt(b, d.I, 10)
	case StringDatum:
		return append(b, d.S...)
	case ValueDatum:
		return d.V.AppendString(b)
	default:
		return append(b, "<nil>"...)
	}
}

func (d Datum) String() string { return string(d.appendTo(nil)) }

// Arg is one named argument of an intercepted function call. The
// target builds its argument lists once with IntArg, StrArg and ValArg
// and then writes only the per-call payload fields (I, V) in place; the
// debugger borrows the list for the call (see EnterFunc).
type Arg struct {
	Name string
	Datum
}

// IntArg, StrArg and ValArg build a named argument of each kind.
func IntArg(name string, i int64) Arg         { return Arg{name, Datum{Kind: IntDatum, I: i}} }
func StrArg(name, s string) Arg               { return Arg{name, Datum{Kind: StringDatum, S: s}} }
func ValArg(name string, v filterc.Value) Arg { return Arg{name, Val(v)} }

// appendTo appends "name=value".
func (a Arg) appendTo(b []byte) []byte {
	b = append(b, a.Name...)
	return a.Datum.appendTo(append(b, '='))
}

func (a Arg) String() string { return string(a.appendTo(nil)) }

// argNamed returns the named argument of a call's argument list (nil
// if absent).
func argNamed(args []Arg, name string) *Arg {
	for i := range args {
		if args[i].Name == name {
			return &args[i]
		}
	}
	return nil
}

// ArgVal extracts a named argument from a call's argument list as an
// interface value: nil, an int64, a string or a filterc.Value.
func ArgVal(args []Arg, name string) (any, bool) {
	a := argNamed(args, name)
	if a == nil {
		return nil, false
	}
	switch a.Kind {
	case IntDatum:
		return a.I, true
	case StringDatum:
		return a.S, true
	case ValueDatum:
		return a.V, true
	default:
		return nil, true
	}
}

// ArgValue returns a filterc-value-typed argument (false if absent or
// of another kind).
func ArgValue(args []Arg, name string) (filterc.Value, bool) {
	if a := argNamed(args, name); a != nil && a.Kind == ValueDatum {
		return a.V, true
	}
	return filterc.Value{}, false
}

// ArgString returns a string-typed argument ("" if absent).
func ArgString(args []Arg, name string) string {
	if a := argNamed(args, name); a != nil && a.Kind == StringDatum {
		return a.S
	}
	return ""
}

// ArgInt returns an int64-typed argument (0 if absent).
func ArgInt(args []Arg, name string) int64 {
	if a := argNamed(args, name); a != nil && a.Kind == IntDatum {
		return a.I
	}
	return 0
}

// StopKind classifies why execution stopped.
type StopKind int

const (
	// StopBreakpoint: a user-visible breakpoint was hit.
	StopBreakpoint StopKind = iota
	// StopStep: a step/next/finish request completed.
	StopStep
	// StopWatchpoint: a watched object changed.
	StopWatchpoint
	// StopAction: a breakpoint action requested a stop (dataflow layer).
	StopAction
	// StopDone: the program ran to completion (or deadlocked; see Deadlock).
	StopDone
	// StopError: a runtime error surfaced.
	StopError
	// StopStalled: the sim progress watchdog (or wall-clock budget)
	// tripped; see Stall for the wait-for report.
	StopStalled
)

func (k StopKind) String() string {
	switch k {
	case StopBreakpoint:
		return "breakpoint"
	case StopStep:
		return "step"
	case StopWatchpoint:
		return "watchpoint"
	case StopAction:
		return "action"
	case StopDone:
		return "done"
	case StopError:
		return "error"
	case StopStalled:
		return "stalled"
	default:
		return fmt.Sprintf("StopKind(%d)", int(k))
	}
}

// StopEvent describes a stop delivered to the debugger driver.
type StopEvent struct {
	Kind     StopKind
	Reason   string // human-oriented announcement
	Proc     *sim.Proc
	Fn       string      // function symbol at the stop site ("" if n/a)
	Pos      filterc.Pos // source position (zero if n/a)
	Bp       *Breakpoint // the breakpoint hit, if any
	Args     []Arg       // call arguments, for function stops
	Ret      Datum       // return value, for finish stops
	IsReturn bool        // true when stopped at a function's return
	Err      error       // for StopError
	Deadlock *sim.DeadlockInfo
	Stall    *sim.StallReport // for StopStalled
}

func (e *StopEvent) String() string {
	if e == nil {
		return "<running>"
	}
	return fmt.Sprintf("[%s] %s", e.Kind, e.Reason)
}

// stepMode is the pending step request kind.
type stepMode int

const (
	stepNone stepMode = iota
	stepInto          // stop at next statement, entering calls
	stepOver          // stop at next statement at same or shallower depth
	stepOut           // stop after the current function returns
)

// Debugger is the low-level debugger instance.
type Debugger struct {
	K    *sim.Kernel
	Syms *dbginfo.Table

	nextBpID int
	bps      map[int]*Breakpoint
	funcBPs  map[string][]*Breakpoint
	// funcCache answers EnterFunc's funcBPs lookups (funcBreakpoints).
	funcCache [funcCacheSize]cachedFunc
	lineBPs   map[lineLoc][]*Breakpoint

	watchpoints []*Watchpoint

	// Armed-surface counters, maintained by insertBp/removeBp, Watch/
	// DeleteWatch and stepCommon/clearStep. EnterFunc and OnStmt compare
	// them to zero before touching any map, so an attached-but-idle
	// debugger costs one integer compare per call / statement.
	armedFunc int // breakpoints in funcBPs
	armedStmt int // line breakpoints + watchpoints + pending step request

	// armWatchers run after every change to what can stop the world
	// (see StopReason). The batched-execution layer hooks here to
	// demote proven-SDF regions the instant a stop-capable item is
	// armed, and to re-promote when the last one goes. Arming happens
	// between dispatches, so watchers run race-free.
	armWatchers []func()
	// stops names the stop-capable items a higher layer arms without
	// planting a breakpoint (the dataflow layer's catchpoints).
	stops []string

	objects map[string]*filterc.Value // registered data objects by symbol
	interps map[*sim.Proc]*filterc.Interp
	sources map[string][]string // file → lines, for the `list` command
	// targetFns models GDB's ability to call functions in the inferior
	// (the runtime registers helpers; higher layers invoke them).
	targetFns map[string]func(args ...any) (any, error)

	// step request state
	stepProc  *sim.Proc
	stepKind  stepMode
	stepDepth int
	stepLine  int
	stepFile  string

	pendingStop *StopEvent
	frames      []*callFrame // free list of EnterFunc call frames
	resumeEv    *sim.Event

	// HookCalls counts every EnterFunc/statement hook crossing — the
	// debugger-attachment overhead measured by experiment P1.
	HookCalls uint64
	// DataBreakpointsEnabled gates data-exchange function breakpoints
	// (the paper's mitigation option 1 disables them wholesale).
	DataBreakpointsEnabled bool

	// Live intrusiveness accounting, maintained only while the kernel has
	// an observer: breakpoint-handler crossings and their host-side cost.
	bpHits   uint64
	bpHostNS uint64
	bpHist   *obs.Histogram
}

// New creates a debugger attached to a kernel.
func New(k *sim.Kernel, syms *dbginfo.Table) *Debugger {
	d := &Debugger{
		K:                      k,
		Syms:                   syms,
		bps:                    make(map[int]*Breakpoint),
		funcBPs:                make(map[string][]*Breakpoint),
		lineBPs:                make(map[lineLoc][]*Breakpoint),
		objects:                make(map[string]*filterc.Value),
		interps:                make(map[*sim.Proc]*filterc.Interp),
		sources:                make(map[string][]string),
		targetFns:              make(map[string]func(args ...any) (any, error)),
		resumeEv:               k.NewEvent("debugger.resume"),
		DataBreakpointsEnabled: true,
	}
	if rec := k.Observer(); rec != nil {
		m := rec.Metrics
		m.RegisterFamily(obs.Family{Series: debuggerSeries, Rows: 1, Read: d.readMetric})
		d.bpHist = m.Histogram("dbg_bp_handler_ns",
			"host wall-clock ns of one breakpoint-handler crossing",
			[]float64{100, 1000, 10_000, 100_000, 1_000_000})
	}
	return d
}

// debuggerSeries are the hook-overhead metrics, read by
// Debugger.readMetric.
var debuggerSeries = []obs.Series{
	{Name: "dbg_hook_calls_total", Help: "framework hook crossings (always-attached overhead)", Type: obs.TypeCounter},
	{Name: "dbg_bp_hits_total", Help: "hook crossings where breakpoint handlers ran", Type: obs.TypeCounter},
	{Name: "dbg_bp_host_ns_total", Help: "host wall-clock ns spent in breakpoint handlers", Type: obs.TypeCounter},
}

func (d *Debugger) readMetric(_, col int) float64 {
	switch col {
	case 0:
		return float64(d.HookCalls)
	case 1:
		return float64(d.bpHits)
	}
	return float64(d.bpHostNS)
}

// OnArmChange registers fn to run after every change to what can stop
// the world: a user breakpoint or watchpoint added, removed, enabled
// or disabled, a step request set or cleared, or a higher layer's
// PublishStops.
func (d *Debugger) OnArmChange(fn func()) { d.armWatchers = append(d.armWatchers, fn) }

// armChanged notifies registered arm watchers.
func (d *Debugger) armChanged() {
	for _, fn := range d.armWatchers {
		fn()
	}
}

// PublishStops replaces the stop-capable items a higher layer has armed
// without planting a breakpoint, each named as StopReason reports it
// (the dataflow layer's catchpoints stop from inside its internal
// breakpoints' actions), and notifies the arm watchers.
func (d *Debugger) PublishStops(reasons []string) {
	d.stops = append(d.stops[:0], reasons...)
	d.armChanged()
}

// StopReason names an armed item that can stop the world mid-run, or
// returns "" when nothing can: an enabled user breakpoint ("breakpoint
// on pipe_work", "breakpoint on ipred.c:12"), an enabled watchpoint
// ("watchpoint on S"), a pending step or finish ("step request"), or
// an item a higher layer published. Internal breakpoints only
// intercept and do not count. Of several items it names the least in
// string order, so the reason does not depend on map order.
func (d *Debugger) StopReason() string {
	reasons := append([]string(nil), d.stops...)
	for _, bp := range d.bps {
		if !bp.Internal && bp.Enabled {
			reasons = append(reasons, "breakpoint on "+bp.loc())
		}
	}
	for _, w := range d.watchpoints {
		if w.Enabled {
			reasons = append(reasons, "watchpoint on "+w.Sym)
		}
	}
	if d.stepKind != stepNone {
		reasons = append(reasons, "step request")
	}
	if len(reasons) == 0 {
		return ""
	}
	return slices.Min(reasons)
}

// BpHits returns how many hook crossings ran at least one breakpoint
// handler (tracked only while an observer is installed).
func (d *Debugger) BpHits() uint64 { return d.bpHits }

// BpHostNS returns the accumulated host wall-clock ns spent in
// breakpoint handlers (the live intrusiveness figure of experiment P1).
func (d *Debugger) BpHostNS() uint64 { return d.bpHostNS }

// RegisterTargetFunc exposes a callable function of the target program
// to the debugger (GDB's `call` on an inferior function). The runtime
// registers helpers such as token injection here.
func (d *Debugger) RegisterTargetFunc(name string, fn func(args ...any) (any, error)) {
	d.targetFns[name] = fn
}

// CallTarget invokes a registered target function. Only meaningful while
// the target is stopped (the cooperative kernel guarantees quiescence).
func (d *Debugger) CallTarget(name string, args ...any) (any, error) {
	fn, ok := d.targetFns[name]
	if !ok {
		return nil, fmt.Errorf("lowdbg: no target function %q", name)
	}
	return fn(args...)
}

// AddSource registers a source file's text (for listing and line tables).
func (d *Debugger) AddSource(file, src string) {
	d.sources[file] = strings.Split(src, "\n")
}

// SourceLine returns one line of a registered file ("" if unknown).
func (d *Debugger) SourceLine(file string, line int) string {
	lines := d.sources[file]
	if line < 1 || line > len(lines) {
		return ""
	}
	return lines[line-1]
}

// RegisterObject exposes a data object (filter private data, attribute)
// under its mangled symbol for printing and watchpoints.
func (d *Debugger) RegisterObject(sym string, v *filterc.Value) {
	d.objects[sym] = v
}

// Object returns a registered data object.
func (d *Debugger) Object(sym string) (*filterc.Value, bool) {
	v, ok := d.objects[sym]
	return v, ok
}

// ObjectNames returns the sorted registered object symbols.
func (d *Debugger) ObjectNames() []string {
	out := make([]string, 0, len(d.objects))
	for n := range d.objects {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AttachInterp binds a filterc interpreter to its simulation process and
// installs the debugger's statement hooks on it.
func (d *Debugger) AttachInterp(p *sim.Proc, in *filterc.Interp) {
	d.interps[p] = in
	prev := in.Hooks
	in.Hooks = &interpHooks{d: d, p: p, chain: prev}
}

// InterpFor returns the interpreter bound to a process (nil if none).
func (d *Debugger) InterpFor(p *sim.Proc) *filterc.Interp {
	return d.interps[p]
}

// Stopped reports whether the target is currently stopped.
func (d *Debugger) Stopped() bool { return d.pendingStop != nil }

// LastStop returns the most recent stop event (nil while running).
func (d *Debugger) LastStop() *StopEvent { return d.pendingStop }

// stopWorld parks the calling process and pauses the kernel, recording
// the stop event for the driver. It returns when the driver resumes.
func (d *Debugger) stopWorld(p *sim.Proc, ev *StopEvent) {
	d.pendingStop = ev
	d.K.Pause()
	p.Wait(d.resumeEv)
}

// run resumes the kernel until the next stop, completion, or error.
func (d *Debugger) run() *StopEvent {
	d.pendingStop = nil
	d.K.Resume()
	d.resumeEv.Notify()
	for {
		st, err := d.K.Run()
		switch st {
		case sim.RunPaused:
			if d.pendingStop != nil {
				return d.pendingStop
			}
			// Spurious pause; keep going.
			d.K.Resume()
		case sim.RunError:
			d.pendingStop = &StopEvent{Kind: StopError, Reason: err.Error(), Err: err}
			return d.pendingStop
		case sim.RunStalled:
			ev := &StopEvent{Kind: StopStalled, Stall: d.K.LastStall()}
			if ev.Stall != nil {
				ev.Reason = ev.Stall.String()
				if ev.Stall.Idle {
					ev.Deadlock = d.K.Blocked()
				}
			} else {
				ev.Reason = "watchdog stall"
			}
			d.pendingStop = ev
			return ev
		default: // RunIdle
			ev := &StopEvent{Kind: StopDone, Reason: "program finished"}
			if dl := d.K.Blocked(); dl != nil {
				ev.Reason = dl.String()
				ev.Deadlock = dl
			}
			d.pendingStop = ev
			return ev
		}
	}
}

// Continue resumes execution until the next stop.
func (d *Debugger) Continue() *StopEvent {
	d.clearStep()
	return d.run()
}

// Step executes until the next statement of p's program, entering calls.
func (d *Debugger) Step(p *sim.Proc) *StopEvent {
	return d.stepCommon(p, stepInto)
}

// Next executes until the next statement at the same or shallower depth.
func (d *Debugger) Next(p *sim.Proc) *StopEvent {
	return d.stepCommon(p, stepOver)
}

// FinishStep runs until the current function of p returns.
func (d *Debugger) FinishStep(p *sim.Proc) *StopEvent {
	return d.stepCommon(p, stepOut)
}

func (d *Debugger) stepCommon(p *sim.Proc, mode stepMode) *StopEvent {
	in := d.interps[p]
	if d.stepKind == stepNone {
		d.armedStmt++
	}
	d.stepProc = p
	d.stepKind = mode
	d.stepDepth = 0
	d.stepLine = 0
	d.stepFile = ""
	if in != nil {
		d.stepDepth = in.Depth()
		if fr := in.CurrentFrame(); fr != nil {
			d.stepLine = fr.Line
			d.stepFile = in.Prog.File
		}
	}
	if d.stepDepth == 0 && mode != stepOut {
		// Stopped at a function's entry (no frame yet), e.g. at a
		// function breakpoint: `next` degenerates to `step`, landing on
		// the first statement — GDB behaves the same way.
		d.stepKind = stepInto
	}
	d.armChanged()
	return d.run()
}

func (d *Debugger) clearStep() {
	if d.stepKind != stepNone {
		d.armedStmt--
	}
	d.stepProc = nil
	d.stepKind = stepNone
	d.armChanged()
}

// Threads lists the simulation processes (the debugger's thread view).
func (d *Debugger) Threads() []*sim.Proc { return d.K.Procs() }

// FramesFor returns the call stack of a process, innermost first.
func (d *Debugger) FramesFor(p *sim.Proc) []*filterc.Frame {
	if in := d.interps[p]; in != nil {
		return in.Stack()
	}
	return nil
}

// PrintExpr resolves a simple expression while stopped: a frame-local
// variable of the stopped process, a registered object symbol, or a
// member path into either (dot/index syntax, e.g. "tok.Addr" or "a[3]").
func (d *Debugger) PrintExpr(p *sim.Proc, expr string) (filterc.Value, error) {
	base, path := splitPath(expr)
	var root *filterc.Value
	if p != nil {
		if in := d.interps[p]; in != nil {
			if fr := in.CurrentFrame(); fr != nil {
				if v, ok := fr.Lookup(base); ok {
					root = v
				}
			}
		}
	}
	if root == nil {
		if v, ok := d.objects[base]; ok {
			root = v
		}
	}
	if root == nil {
		return filterc.Value{}, fmt.Errorf("no symbol %q in current context", base)
	}
	return resolvePath(*root, path)
}

// splitPath separates "a.b[2].c" into base "a" and path elements.
func splitPath(expr string) (string, []string) {
	expr = strings.TrimSpace(expr)
	var parts []string
	cur := strings.Builder{}
	flush := func() {
		if cur.Len() > 0 {
			parts = append(parts, cur.String())
			cur.Reset()
		}
	}
	for _, r := range expr {
		switch r {
		case '.':
			flush()
		case '[':
			flush()
			cur.WriteByte('[')
		case ']':
			cur.WriteByte(']')
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	if len(parts) == 0 {
		return expr, nil
	}
	return parts[0], parts[1:]
}

func resolvePath(v filterc.Value, path []string) (filterc.Value, error) {
	for _, el := range path {
		if strings.HasPrefix(el, "[") && strings.HasSuffix(el, "]") {
			if v.Type == nil || v.Type.Kind != filterc.KArray {
				return filterc.Value{}, fmt.Errorf("indexing non-array %s", v.Type)
			}
			var idx int
			if _, err := fmt.Sscanf(el, "[%d]", &idx); err != nil {
				return filterc.Value{}, fmt.Errorf("bad index %q", el)
			}
			if idx < 0 || idx >= len(v.Elems) {
				return filterc.Value{}, fmt.Errorf("index %d out of range", idx)
			}
			v = v.Elems[idx]
			continue
		}
		if v.Type == nil || v.Type.Kind != filterc.KStruct {
			return filterc.Value{}, fmt.Errorf("member %q of non-struct %s", el, v.Type)
		}
		fi := v.Type.FieldIndex(el)
		if fi < 0 {
			return filterc.Value{}, fmt.Errorf("no field %q in %s", el, v.Type.Name)
		}
		v = v.Elems[fi]
	}
	return v, nil
}
