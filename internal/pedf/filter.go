package pedf

import (
	"fmt"

	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/sim"
)

// Role distinguishes the two executable actor flavours.
type Role int

const (
	// RoleFilter is a data-processing actor (paper's Filter entity).
	RoleFilter Role = iota
	// RoleController is a module's scheduling actor.
	RoleController
)

func (r Role) String() string {
	if r == RoleController {
		return "controller"
	}
	return "filter"
}

// FilterState is the scheduling lifecycle the debugger's scheduling
// monitor (contribution #2) displays.
type FilterState int

const (
	// StateIdle: not scheduled for the current step.
	StateIdle FilterState = iota
	// StateScheduled: ACTOR_START issued, work not yet begun.
	StateScheduled
	// StateRunning: executing WORK firings.
	StateRunning
	// StateSynced: finished the step after an ACTOR_SYNC request.
	StateSynced
	// StateDone: shut down (module finished).
	StateDone
)

func (s FilterState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateScheduled:
		return "scheduled"
	case StateRunning:
		return "running"
	case StateSynced:
		return "synced"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("FilterState(%d)", int(s))
	}
}

// VarSpec declares one private-data or attribute variable.
type VarSpec struct {
	Name string
	Type *filterc.Type
	Init int64 // initial scalar value (aggregates start zeroed)
}

// PortSpec declares one port.
type PortSpec struct {
	Name string
	Type *filterc.Type
}

// WorkCtx is the API surface native (Go-implemented) filters program
// against; interpreted filters get the same operations through the
// pedf.io/.data/.attribute accessors.
type WorkCtx struct {
	f *Filter
	p *sim.Proc
}

// Filter returns the executing filter's name.
func (c *WorkCtx) Filter() string { return c.f.Name }

// Read consumes the next unread token of an input interface (blocking).
func (c *WorkCtx) Read(iface string) (filterc.Value, error) {
	next := int64(0)
	if port := c.f.ins[iface]; port != nil {
		next = int64(len(port.window))
	}
	return c.cloned(c.f.ioRead(iface, next))
}

// ReadAt reads the token at the given intra-firing index.
func (c *WorkCtx) ReadAt(iface string, idx int64) (filterc.Value, error) {
	return c.cloned(c.f.ioRead(iface, idx))
}

// cloned hands native work code a token it owns: ioRead returns the
// read window's own copy, which later reads in the firing see again.
func (c *WorkCtx) cloned(v filterc.Value, err error) (filterc.Value, error) {
	return v.Clone(), err
}

// Write produces the next token on an output interface (blocking when
// the link is full).
func (c *WorkCtx) Write(iface string, v filterc.Value) error {
	next := int64(0)
	if port := c.f.outs[iface]; port != nil {
		next = int64(port.writes)
	}
	return c.f.ioWrite(iface, next, v)
}

// Data returns an lvalue for a private-data variable.
func (c *WorkCtx) Data(name string) (*filterc.Value, error) { return c.f.dataRef(name) }

// Attr returns an lvalue for an attribute.
func (c *WorkCtx) Attr(name string) (*filterc.Value, error) { return c.f.attrRef(name) }

// Compute charges n statement-cycles of work on the filter's PE.
func (c *WorkCtx) Compute(n int) { c.f.rt.M.ComputeOn(c.p, c.f.PE, n) }

// StepIndex returns the owning module's current step number.
func (c *WorkCtx) StepIndex() uint64 { return c.f.Module.step }

// CtlCtx extends WorkCtx with the controller scheduling protocol for
// native controllers.
type CtlCtx struct {
	WorkCtx
}

// Start issues ACTOR_START for a filter of the controller's module.
func (c *CtlCtx) Start(name string) error { return c.f.rt.actorStart(c.p, c.f.Module, name) }

// Sync issues ACTOR_SYNC for a filter of the controller's module.
func (c *CtlCtx) Sync(name string) error { return c.f.rt.actorSync(c.p, c.f.Module, name) }

// Fire issues the merged ACTOR_FIRE (START + SYNC).
func (c *CtlCtx) Fire(name string) error {
	if err := c.Start(name); err != nil {
		return err
	}
	return c.Sync(name)
}

// WaitInit blocks until every started filter actually began executing.
func (c *CtlCtx) WaitInit() { c.f.rt.waitActorInit(c.p, c.f.Module) }

// WaitSync blocks until every sync-requested filter finished its step.
func (c *CtlCtx) WaitSync() { c.f.rt.waitActorSync(c.p, c.f.Module) }

// Filter is an executable actor: a data filter or a module controller.
type Filter struct {
	Name   string
	Role   Role
	Module *Module
	PE     *mach.PE

	// Exactly one of Prog (interpreted filterc) or Work/Ctl (native Go)
	// is set.
	Prog       *filterc.Program
	SourceFile string
	NativeWork func(*WorkCtx) error
	// NativeCtl runs one controller step; returning false ends the module.
	NativeCtl func(*CtlCtx) (bool, error)

	rt     *Runtime
	proc   *sim.Proc
	interp *filterc.Interp

	dataNames []string
	data      map[string]*filterc.Value
	attrNames []string
	attrs     map[string]*filterc.Value

	inNames  []string
	ins      map[string]*Port
	outNames []string
	outs     map[string]*Port
	ports    []*Port // every own port, inputs and outputs, for resetWindows

	state       FilterState
	blockedOn   string // non-empty while waiting on a link operation
	startReq    bool
	syncReq     bool
	pendingInit bool
	pendingSync bool
	shutdown    bool
	firings     uint64 // completed WORK invocations
	blockedNS   uint64 // simulated ns spent blocked (link waits + sync waits)

	startEv *sim.Event

	// Batched execution (DESIGN §12). lazy is the live mode bit of a
	// proven-SDF region's actor, flipped by Runtime.recomputeBatch. While
	// lazy, executed statements are counted in lazyStmts and their cycles
	// paid in one SleepSteps before any externally observable action, so
	// timestamps and the kernel's dispatch order match the per-token
	// engine exactly.
	lazy      bool
	lazyStmts int

	// Debugger interception state, built on first use: the mangled
	// WORK symbol, the recycled WORK hook arguments, and the fixed
	// ACTOR_START/ACTOR_SYNC arguments naming this filter (DESIGN §12).
	workSym   string
	workList  []lowdbg.Arg
	schedList []lowdbg.Arg
}

// workArgs returns the WORK hook argument list for one firing: self,
// module and the call counter n ("step" for a controller, "firing" for
// a filter). The list is recycled; only the filter's own process fires
// it, one firing at a time. The first call also computes f.workSym.
func (f *Filter) workArgs(n uint64) []lowdbg.Arg {
	if f.workList == nil {
		counter := "firing"
		if f.Role == RoleController {
			counter = "step"
		}
		f.workSym = WorkSymbol(f)
		f.workList = []lowdbg.Arg{
			lowdbg.StrArg("self", f.Name), lowdbg.StrArg("module", f.Module.Name), lowdbg.IntArg(counter, 0),
		}
	}
	f.workList[2].I = int64(n)
	return f.workList
}

// schedArgs returns the ACTOR_START/ACTOR_SYNC hook arguments naming
// this filter. The list has no per-call entries, so every call shares it.
func (f *Filter) schedArgs() []lowdbg.Arg {
	if f.schedList == nil {
		f.schedList = []lowdbg.Arg{lowdbg.StrArg("module", f.Module.Name), lowdbg.StrArg("filter", f.Name)}
	}
	return f.schedList
}

// flushLazy pays the banked statement cycles with one baton handoff.
// Must run before every action whose timestamp or ordering another
// process can observe: pushing/popping a token, reading link occupancy,
// or stamping the end of a firing.
func (f *Filter) flushLazy() {
	if f.lazyStmts == 0 {
		return
	}
	n := f.lazyStmts
	f.lazyStmts = 0
	f.proc.SleepSteps(n, f.rt.M.Cfg.CycleTime)
}

// State returns the scheduling state.
func (f *Filter) State() FilterState { return f.state }

// BlockedOn returns the link operation the filter is blocked on
// ("pop:iface" / "push:iface"), or "" when not blocked.
func (f *Filter) BlockedOn() string { return f.blockedOn }

// Firings returns the number of completed WORK invocations.
func (f *Filter) Firings() uint64 { return f.firings }

// BlockedNS returns the simulated ns the actor has spent blocked.
func (f *Filter) BlockedNS() uint64 { return f.blockedNS }

// Proc returns the simulation process executing this actor.
func (f *Filter) Proc() *sim.Proc { return f.proc }

// Interp returns the filterc interpreter (nil for native actors).
func (f *Filter) Interp() *filterc.Interp { return f.interp }

// CurrentLine returns the source line being executed (0 if unknown) —
// the "source-code line currently executed" of Section III.
func (f *Filter) CurrentLine() int {
	if f.interp == nil {
		return 0
	}
	if fr := f.interp.CurrentFrame(); fr != nil {
		return fr.Line
	}
	return 0
}

// Inputs returns the input port names in declaration order.
func (f *Filter) Inputs() []string { return append([]string(nil), f.inNames...) }

// Outputs returns the output port names in declaration order.
func (f *Filter) Outputs() []string { return append([]string(nil), f.outNames...) }

// In returns an input port by name.
func (f *Filter) In(name string) *Port { return f.ins[name] }

// Out returns an output port by name.
func (f *Filter) Out(name string) *Port { return f.outs[name] }

// DataNames returns the private-data variable names.
func (f *Filter) DataNames() []string { return append([]string(nil), f.dataNames...) }

// AttrNames returns the attribute names.
func (f *Filter) AttrNames() []string { return append([]string(nil), f.attrNames...) }

// DataVal returns a private-data variable's storage.
func (f *Filter) DataVal(name string) (*filterc.Value, bool) {
	v, ok := f.data[name]
	return v, ok
}

// AttrVal returns an attribute's storage.
func (f *Filter) AttrVal(name string) (*filterc.Value, bool) {
	v, ok := f.attrs[name]
	return v, ok
}

func (f *Filter) String() string {
	return fmt.Sprintf("%s %s (%s, %d firings)", f.Role, f.Name, f.state, f.firings)
}

func (f *Filter) setBlocked(on string) {
	f.blockedOn = on
}

func (f *Filter) setState(s FilterState) {
	f.state = s
	switch s {
	case StateRunning:
		f.pendingInit = false
	case StateSynced, StateDone:
		f.pendingSync = false
	}
	f.Module.stateChange.Notify()
}

// resetWindows clears the intra-firing IO windows kept on the ports.
// Window backings (including cached Value element storage, which
// CloneInto recycles) are reused across firings, so a steady-state
// firing performs no window bookkeeping allocations.
func (f *Filter) resetWindows() {
	for _, p := range f.ports {
		p.window = p.window[:0]
		p.writes = 0
	}
}

// ioRead implements pedf.io.<iface>[idx] reads: tokens are popped from
// the link into the port's read window until index idx is available.
// The result shares storage with the window, which stays unchanged for
// the rest of the firing; the interpreter copies it before keeping it.
func (f *Filter) ioRead(iface string, idx int64) (filterc.Value, error) {
	port, ok := f.ins[iface]
	if !ok {
		return filterc.Value{}, fmt.Errorf("pedf: %s has no input interface %q", f.Name, iface)
	}
	if port.link == nil {
		return filterc.Value{}, fmt.Errorf("pedf: input %s is not bound", port.Qualified())
	}
	if idx < 0 {
		return filterc.Value{}, fmt.Errorf("pedf: negative io index %d on %s", idx, port.Qualified())
	}
	if int64(len(port.window)) <= idx {
		// About to touch the link: settle banked lazy time first so the
		// pop timestamp (and any blocking) happens at the true instant.
		f.flushLazy()
	}
	for int64(len(port.window)) <= idx {
		// Pop directly into the next window slot; truncated slots from
		// earlier firings keep their element storage, so steady-state
		// reads do not allocate.
		s := port.window
		if len(s) < cap(s) {
			s = s[:len(s)+1]
		} else {
			s = append(s, filterc.Value{})
		}
		port.window = s
		if _, err := port.link.pop(f.proc, f, &s[len(s)-1]); err != nil {
			return filterc.Value{}, err
		}
	}
	return port.window[idx], nil
}

// ioWrite implements pedf.io.<iface>[idx] writes; indices must be issued
// sequentially within a firing, as the structure dataflow model requires.
// v may borrow the interpreter's storage: the link copies it.
func (f *Filter) ioWrite(iface string, idx int64, v filterc.Value) error {
	port, ok := f.outs[iface]
	if !ok {
		return fmt.Errorf("pedf: %s has no output interface %q", f.Name, iface)
	}
	if port.link == nil {
		return fmt.Errorf("pedf: output %s is not bound", port.Qualified())
	}
	if idx != int64(port.writes) {
		return fmt.Errorf("pedf: non-sequential write index %d on %s (expected %d)",
			idx, port.Qualified(), port.writes)
	}
	f.flushLazy()
	if err := port.link.push(f.proc, f, f.PE, v); err != nil {
		return err
	}
	port.writes++
	return nil
}

func (f *Filter) dataRef(name string) (*filterc.Value, error) {
	if v, ok := f.data[name]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("pedf: %s has no private data %q", f.Name, name)
}

func (f *Filter) attrRef(name string) (*filterc.Value, error) {
	if v, ok := f.attrs[name]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("pedf: %s has no attribute %q", f.Name, name)
}

// filterEnv adapts a Filter to filterc.Env.
type filterEnv struct {
	f *Filter
}

func (e *filterEnv) IORead(iface string, idx int64) (filterc.Value, error) {
	return e.f.ioRead(iface, idx)
}

func (e *filterEnv) IOWrite(iface string, idx int64, v filterc.Value) error {
	return e.f.ioWrite(iface, idx, v)
}

func (e *filterEnv) DataRef(name string) (*filterc.Value, error) { return e.f.dataRef(name) }
func (e *filterEnv) AttrRef(name string) (*filterc.Value, error) { return e.f.attrRef(name) }

func (e *filterEnv) Intrinsic(name string, args []filterc.Value) (filterc.Value, bool, error) {
	f := e.f
	strArg := func() (string, error) {
		if len(args) != 1 || args[0].Type == nil || args[0].Type.Base != filterc.Str {
			return "", fmt.Errorf("%s expects one string argument", name)
		}
		return args[0].S, nil
	}
	switch name {
	case "ACTOR_START", "ACTOR_SYNC", "ACTOR_FIRE":
		if f.Role != RoleController {
			return filterc.Value{}, true, fmt.Errorf("%s is only available in controllers", name)
		}
		target, err := strArg()
		if err != nil {
			return filterc.Value{}, true, err
		}
		switch name {
		case "ACTOR_START":
			err = f.rt.actorStart(f.proc, f.Module, target)
		case "ACTOR_SYNC":
			err = f.rt.actorSync(f.proc, f.Module, target)
		default:
			if err = f.rt.actorStart(f.proc, f.Module, target); err == nil {
				err = f.rt.actorSync(f.proc, f.Module, target)
			}
		}
		return filterc.VoidVal(), true, err
	case "WAIT_FOR_ACTOR_INIT":
		if f.Role != RoleController {
			return filterc.Value{}, true, fmt.Errorf("%s is only available in controllers", name)
		}
		f.rt.waitActorInit(f.proc, f.Module)
		return filterc.VoidVal(), true, nil
	case "WAIT_FOR_ACTOR_SYNC":
		if f.Role != RoleController {
			return filterc.Value{}, true, fmt.Errorf("%s is only available in controllers", name)
		}
		f.rt.waitActorSync(f.proc, f.Module)
		return filterc.VoidVal(), true, nil
	case "STEP_INDEX":
		return filterc.Int(filterc.U32, int64(f.Module.step)), true, nil
	case "IO_AVAILABLE":
		// Number of tokens currently queued on an input interface.
		target, err := strArg()
		if err != nil {
			return filterc.Value{}, true, err
		}
		port, ok := f.ins[target]
		if !ok || port.link == nil {
			return filterc.Value{}, true, fmt.Errorf("no bound input interface %q", target)
		}
		// Occupancy is observable cross-actor state: settle lazy time so
		// the value is sampled at the true simulated instant.
		f.flushLazy()
		return filterc.Int(filterc.U32, int64(port.link.Occupancy())), true, nil
	}
	return filterc.Value{}, false, nil
}

// costHooks charges one machine cycle per executed statement, making
// interpreted code consume simulated time (and yield deterministically).
type costHooks struct {
	f *Filter
}

func (h *costHooks) OnStmt(fr *filterc.Frame, pos filterc.Pos) {
	f := h.f
	if f.lazy {
		// Batched mode: bank the cycle instead of a kernel round-trip;
		// flushLazy settles the balance before any observable action.
		f.lazyStmts++
		return
	}
	if f.lazyStmts > 0 {
		// Demoted mid-firing: charge the banked backlog before resuming
		// per-statement accounting, keeping total time identical.
		f.flushLazy()
	}
	f.rt.M.ComputeOn(f.proc, f.PE, 1)
}
func (h *costHooks) OnEnter(fr *filterc.Frame)                 {}
func (h *costHooks) OnExit(fr *filterc.Frame, v filterc.Value) {}
