package core

import (
	"fmt"
	"sort"
	"strings"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/sim"
)

// Framework API symbol names. The dataflow layer knows the framework's
// API surface the way the paper's extension does ("based on PEDF API and
// source code, we elected the locations responsible for key dataflow
// operations"); a test cross-checks these strings against the pedf
// package so they cannot drift.
const (
	symRegisterModule     = "pedf_register_module"
	symRegisterFilter     = "pedf_register_filter"
	symRegisterController = "pedf_register_controller"
	symRegisterPort       = "pedf_register_port"
	symBind               = "pedf_bind"
	symLinkPush           = "pedf_link_push"
	symLinkPop            = "pedf_link_pop"
	symCtrlPush           = "pedf_ctrl_push"
	symCtrlPop            = "pedf_ctrl_pop"
	symActorStart         = "pedf_actor_start"
	symActorSync          = "pedf_actor_sync"
	symWaitActorInit      = "pedf_wait_actor_init"
	symWaitActorSync      = "pedf_wait_actor_sync"
	symStepBegin          = "pedf_step_begin"
	symStepEnd            = "pedf_step_end"

	envActorName = "env"
)

// Target helper functions (GDB "call inferior function" surface).
const (
	tfLinkInject     = "pedf_link_inject"
	tfLinkDrop       = "pedf_link_drop"
	tfLinkReplace    = "pedf_link_replace"
	tfLinkPeek       = "pedf_link_peek"
	tfLinkOccupancy  = "pedf_link_occupancy"
	tfLinkInjectZero = "pedf_link_inject_zero"
	tfFilterLine     = "pedf_filter_line"
	tfFilterBlocked  = "pedf_filter_blocked"
)

// Debugger is the dataflow-aware debugging layer.
type Debugger struct {
	Low *lowdbg.Debugger

	actors      map[string]*Actor
	actorList   []*Actor
	modules     map[string]*ModuleInfo
	moduleList  []*ModuleInfo
	links       map[int64]*LinkInfo
	linkList    []*LinkInfo
	conns       map[string]*Connection // by qualified name
	actorByProc map[*sim.Proc]*Actor

	tokenSeq uint64

	catchpoints []*Catchpoint
	nextCatchID int

	// DefaultRecordCap bounds each interface's recorded-token history.
	DefaultRecordCap int

	// DataEvents counts intercepted data-exchange operations (model
	// update work attributable to contribution #3).
	DataEvents uint64

	// log collects announcement lines ("[Temporary breakpoint inserted
	// after input interface ...]") for the CLI to drain.
	log []string
}

// Attach installs the dataflow layer's internal function breakpoints on
// the low-level debugger and returns the layer.
func Attach(low *lowdbg.Debugger) *Debugger {
	d := &Debugger{
		Low:              low,
		actors:           make(map[string]*Actor),
		modules:          make(map[string]*ModuleInfo),
		links:            make(map[int64]*LinkInfo),
		conns:            make(map[string]*Connection),
		actorByProc:      make(map[*sim.Proc]*Actor),
		DefaultRecordCap: 256,
	}
	// Initialization phase: graph reconstruction (contribution #1).
	low.BreakFuncInternal(symRegisterModule, d.onRegisterModule, nil)
	low.BreakFuncInternal(symRegisterFilter, d.onRegisterFilter, nil)
	low.BreakFuncInternal(symRegisterController, d.onRegisterController, nil)
	low.BreakFuncInternal(symRegisterPort, d.onRegisterPort, nil)
	low.BreakFuncInternal(symBind, d.onBind, nil)
	// Scheduling protocol (contribution #2).
	low.BreakFuncInternal(symStepBegin, d.onStepBegin, nil)
	low.BreakFuncInternal(symStepEnd, d.onStepEnd, nil)
	low.BreakFuncInternal(symActorStart, d.onActorStart, nil)
	low.BreakFuncInternal(symActorSync, d.onActorSync, nil)
	// Data exchanges (contribution #3). Data-link breakpoints carry the
	// IsData flag so mitigation option 1 can disable them wholesale;
	// control-link variants stay alive.
	for _, sym := range []string{symLinkPush, symCtrlPush} {
		bp := low.BreakFuncInternal(sym, d.onPushEnter, d.onPushReturn)
		bp.IsData = sym == symLinkPush
	}
	for _, sym := range []string{symLinkPop, symCtrlPop} {
		bp := low.BreakFuncInternal(sym, d.onPopEnter, d.onPopReturn)
		bp.IsData = sym == symLinkPop
	}
	// Observability: when a recorder is installed on the kernel, expose
	// the model-update workload (this layer stays pedf-free; it only
	// reads the obs registry).
	if rec := low.K.Observer(); rec != nil {
		rec.Metrics.CounterFunc("core_data_events_total",
			"data-exchange operations intercepted by the dataflow layer",
			func() float64 { return float64(d.DataEvents) })
	}
	return d
}

// announce appends a CLI-visible log line.
func (d *Debugger) announce(format string, args ...any) {
	d.log = append(d.log, fmt.Sprintf(format, args...))
}

// DrainLog returns and clears pending announcements.
func (d *Debugger) DrainLog() []string {
	out := d.log
	d.log = nil
	return out
}

// ---- model lookups ----

// Actor returns a reconstructed actor by name (nil if unknown).
func (d *Debugger) Actor(name string) *Actor { return d.actors[name] }

// Actors returns all reconstructed actors in registration order.
func (d *Debugger) Actors() []*Actor { return append([]*Actor(nil), d.actorList...) }

// Modules returns all reconstructed modules in registration order.
func (d *Debugger) Modules() []*ModuleInfo { return append([]*ModuleInfo(nil), d.moduleList...) }

// Module returns a module's info by name.
func (d *Debugger) Module(name string) *ModuleInfo { return d.modules[name] }

// Links returns all reconstructed links.
func (d *Debugger) Links() []*LinkInfo { return append([]*LinkInfo(nil), d.linkList...) }

// Connection resolves a qualified interface name ("pipe::Red2PipeCbMB_in").
func (d *Debugger) Connection(qualified string) (*Connection, error) {
	if c, ok := d.conns[qualified]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("core: no interface %q (known: %s)",
		qualified, strings.Join(d.Complete(""), ", "))
}

// ActorForProc maps an execution context back to its actor.
func (d *Debugger) ActorForProc(p *sim.Proc) *Actor { return d.actorByProc[p] }

// Complete returns the sorted qualified interface and actor names with
// the given prefix — the paper's autocompletion support.
func (d *Debugger) Complete(prefix string) []string {
	var out []string
	for name := range d.actors {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	for q := range d.conns {
		if strings.HasPrefix(q, prefix) {
			out = append(out, q)
		}
	}
	sort.Strings(out)
	return out
}

// ---- actor/connection construction ----

func (d *Debugger) addActor(name string, kind ActorKind, module string) *Actor {
	if a, ok := d.actors[name]; ok {
		return a
	}
	a := &Actor{Name: name, Kind: kind, Module: module}
	d.actors[name] = a
	d.actorList = append(d.actorList, a)
	return a
}

func (d *Debugger) addConn(actor *Actor, port, dir, typ string) *Connection {
	q := actor.Name + "::" + port
	if c, ok := d.conns[q]; ok {
		return c
	}
	c := &Connection{Actor: actor, Name: port, Dir: dir, Type: typ, RecordCap: d.DefaultRecordCap, qualified: q}
	d.conns[q] = c
	if dir == "input" {
		c.inFlight = "pop:" + port
		actor.Inputs = append(actor.Inputs, c)
	} else {
		c.inFlight = "push:" + port
		actor.Outputs = append(actor.Outputs, c)
	}
	return c
}

// ---- registration-phase actions (graph reconstruction) ----

func (d *Debugger) onRegisterModule(ctx *lowdbg.StopCtx) lowdbg.Disposition {
	name := lowdbg.ArgString(ctx.Args, "module")
	parent := lowdbg.ArgString(ctx.Args, "parent")
	a := d.addActor(name, KindModule, parent)
	if _, ok := d.modules[name]; !ok {
		mi := &ModuleInfo{Actor: a, Parent: parent}
		d.modules[name] = mi
		d.moduleList = append(d.moduleList, mi)
	}
	return lowdbg.DispContinue
}

func (d *Debugger) onRegisterFilter(ctx *lowdbg.StopCtx) lowdbg.Disposition {
	name := lowdbg.ArgString(ctx.Args, "filter")
	module := lowdbg.ArgString(ctx.Args, "module")
	d.addActor(name, KindFilter, module)
	if mi, ok := d.modules[module]; ok {
		mi.Filters = append(mi.Filters, name)
	}
	// Monitor the filter's WORK method through its mangled symbol.
	d.installWorkBreakpoint(dbginfo.MangleFilterWork(name))
	return lowdbg.DispContinue
}

func (d *Debugger) onRegisterController(ctx *lowdbg.StopCtx) lowdbg.Disposition {
	module := lowdbg.ArgString(ctx.Args, "module")
	name := lowdbg.ArgString(ctx.Args, "controller")
	d.addActor(name, KindController, module)
	d.installWorkBreakpoint(dbginfo.MangleControllerWork(module))
	return lowdbg.DispContinue
}

func (d *Debugger) installWorkBreakpoint(sym string) {
	d.Low.BreakFuncInternal(sym, d.onWorkEnter, d.onWorkExit)
}

func (d *Debugger) onRegisterPort(ctx *lowdbg.StopCtx) lowdbg.Disposition {
	actorName := lowdbg.ArgString(ctx.Args, "actor")
	a, ok := d.actors[actorName]
	if !ok {
		a = d.addActor(actorName, KindFilter, "")
	}
	d.addConn(a,
		lowdbg.ArgString(ctx.Args, "port"),
		lowdbg.ArgString(ctx.Args, "dir"),
		lowdbg.ArgString(ctx.Args, "type"))
	return lowdbg.DispContinue
}

func (d *Debugger) onBind(ctx *lowdbg.StopCtx) lowdbg.Disposition {
	id := lowdbg.ArgInt(ctx.Args, "link")
	srcName := lowdbg.ArgString(ctx.Args, "src")
	dstName := lowdbg.ArgString(ctx.Args, "dst")
	srcPort := lowdbg.ArgString(ctx.Args, "src_port")
	dstPort := lowdbg.ArgString(ctx.Args, "dst_port")
	kind := lowdbg.ArgString(ctx.Args, "kind")

	srcActor, ok := d.actors[srcName]
	if !ok {
		srcActor = d.addActor(srcName, kindForName(srcName), "")
	}
	dstActor, ok := d.actors[dstName]
	if !ok {
		dstActor = d.addActor(dstName, kindForName(dstName), "")
	}
	src := d.addConn(srcActor, srcPort, "output", "")
	dst := d.addConn(dstActor, dstPort, "input", "")
	l := &LinkInfo{ID: id, Src: src, Dst: dst, Kind: kind}
	src.Link = l
	dst.Link = l
	d.links[id] = l
	d.linkList = append(d.linkList, l)
	return lowdbg.DispContinue
}

func kindForName(name string) ActorKind {
	if name == envActorName {
		return KindEnv
	}
	return KindFilter
}

// ---- scheduling actions (contribution #2) ----

func (d *Debugger) onStepBegin(ctx *lowdbg.StopCtx) lowdbg.Disposition {
	module := lowdbg.ArgString(ctx.Args, "module")
	step := lowdbg.ArgInt(ctx.Args, "step")
	mi, ok := d.modules[module]
	if !ok {
		return lowdbg.DispContinue
	}
	mi.Step = uint64(step)
	mi.InStep = true
	// A new step: filters that finished the previous step go back to
	// "not scheduled" until the controller starts them again.
	for _, fn := range mi.Filters {
		if a := d.actors[fn]; a != nil && a.State == SchedSynced {
			a.State = SchedIdle
		}
	}
	return d.evalStepCatch(ctx, module, false)
}

func (d *Debugger) onStepEnd(ctx *lowdbg.StopCtx) lowdbg.Disposition {
	module := lowdbg.ArgString(ctx.Args, "module")
	if mi, ok := d.modules[module]; ok {
		mi.InStep = false
	}
	return d.evalStepCatch(ctx, module, true)
}

func (d *Debugger) onActorStart(ctx *lowdbg.StopCtx) lowdbg.Disposition {
	name := lowdbg.ArgString(ctx.Args, "filter")
	a := d.actors[name]
	if a == nil {
		return lowdbg.DispContinue
	}
	if a.State != SchedRunning {
		a.State = SchedScheduled
	}
	return d.evalScheduledCatch(ctx, a)
}

func (d *Debugger) onActorSync(ctx *lowdbg.StopCtx) lowdbg.Disposition {
	name := lowdbg.ArgString(ctx.Args, "filter")
	if a := d.actors[name]; a != nil {
		a.syncRequested = true
	}
	return lowdbg.DispContinue
}

// ---- work actions ----

func (d *Debugger) onWorkEnter(ctx *lowdbg.StopCtx) lowdbg.Disposition {
	name := lowdbg.ArgString(ctx.Args, "self")
	a := d.actors[name]
	if a == nil {
		return lowdbg.DispContinue
	}
	if a.Proc == nil {
		a.Proc = ctx.Proc
		d.actorByProc[ctx.Proc] = a
	}
	a.State = SchedRunning
	clear(a.firingInputs)
	a.firingInputs = a.firingInputs[:0]
	return lowdbg.DispContinue
}

func (d *Debugger) onWorkExit(ctx *lowdbg.StopCtx) lowdbg.Disposition {
	name := lowdbg.ArgString(ctx.Args, "self")
	a := d.actors[name]
	if a == nil {
		return lowdbg.DispContinue
	}
	a.Firings++
	if a.syncRequested {
		a.State = SchedSynced
		a.syncRequested = false
	}
	if a.Kind == KindController {
		// A controller's WORK returning 0 ends the module.
		if v := ctx.Ret.V; ctx.Ret.Kind == lowdbg.ValueDatum && v.IsScalar() && v.I == 0 {
			if mi, ok := d.modules[a.Module]; ok {
				mi.Done = true
			}
		}
	}
	return lowdbg.DispContinue
}

// ---- data-exchange actions (contribution #3) ----

// onPushEnter marks the producer's push in flight. The link id resolves
// the endpoint; a link never announced by pedf_bind falls back to the
// endpoint's names.
func (d *Debugger) onPushEnter(ctx *lowdbg.StopCtx) lowdbg.Disposition {
	d.DataEvents++
	if l := d.links[lowdbg.ArgInt(ctx.Args, "link")]; l != nil {
		d.beginExchange(ctx, l.Src.Actor, l.Src.inFlight)
		return lowdbg.DispContinue
	}
	if a := d.actors[lowdbg.ArgString(ctx.Args, "src")]; a != nil {
		port := lowdbg.ArgString(ctx.Args, "src_port")
		if c := a.Out(port); c != nil {
			d.beginExchange(ctx, a, c.inFlight)
		} else {
			d.beginExchange(ctx, a, "push:"+port)
		}
	}
	return lowdbg.DispContinue
}

// beginExchange records actor a's in-flight push or pop (op) and binds
// a non-environment actor to the calling process on its first exchange.
func (d *Debugger) beginExchange(ctx *lowdbg.StopCtx, a *Actor, op string) {
	a.inFlightOp = op
	if a.Proc == nil && a.Kind != KindEnv {
		a.Proc = ctx.Proc
		d.actorByProc[ctx.Proc] = a
	}
}

// endUnboundExchange ends the in-flight exchange onPushEnter or
// onPopEnter marked by name for a link pedf_bind never announced; the
// endpoint argument names the actor ("src" or "dst"). Such a link is
// not modelled, so no token is recorded.
func (d *Debugger) endUnboundExchange(ctx *lowdbg.StopCtx, endpoint string) {
	if a := d.actors[lowdbg.ArgString(ctx.Args, endpoint)]; a != nil {
		a.inFlightOp = ""
	}
}

func (d *Debugger) onPushReturn(ctx *lowdbg.StopCtx) lowdbg.Disposition {
	id := lowdbg.ArgInt(ctx.Args, "link")
	l := d.links[id]
	if l == nil {
		d.endUnboundExchange(ctx, "src")
		return lowdbg.DispContinue
	}
	srcActor := l.Src.Actor
	srcActor.inFlightOp = ""
	fv, _ := lowdbg.ArgValue(ctx.Args, "value")
	d.tokenSeq++
	tok := &Token{
		ID: d.tokenSeq,
		Hop: Hop{
			From: srcActor.Name, To: l.Dst.Actor.Name,
			Iface: l.Dst.Qualified(), Type: typeName(fv), Val: fv,
			Seq: uint64(lowdbg.ArgInt(ctx.Args, "index")), At: ctx.Proc.Now(),
		},
	}
	if srcActor.Behavior != BehaviorUnknown && len(srcActor.firingInputs) > 0 {
		tok.Origins = append([]*Token(nil), srcActor.firingInputs...)
	}
	l.Tokens = append(l.Tokens, tok)
	l.TotalPushed++
	l.Src.Sent++
	l.Src.LastToken = tok
	l.Src.record(tok)
	return d.evalSendCatch(ctx, l.Src, tok)
}

// onPopEnter marks the consumer's pop in flight, resolving the endpoint
// as onPushEnter does.
func (d *Debugger) onPopEnter(ctx *lowdbg.StopCtx) lowdbg.Disposition {
	d.DataEvents++
	if l := d.links[lowdbg.ArgInt(ctx.Args, "link")]; l != nil {
		d.beginExchange(ctx, l.Dst.Actor, l.Dst.inFlight)
		return lowdbg.DispContinue
	}
	if a := d.actors[lowdbg.ArgString(ctx.Args, "dst")]; a != nil {
		port := lowdbg.ArgString(ctx.Args, "dst_port")
		if c := a.In(port); c != nil {
			d.beginExchange(ctx, a, c.inFlight)
		} else {
			d.beginExchange(ctx, a, "pop:"+port)
		}
	}
	return lowdbg.DispContinue
}

func (d *Debugger) onPopReturn(ctx *lowdbg.StopCtx) lowdbg.Disposition {
	id := lowdbg.ArgInt(ctx.Args, "link")
	l := d.links[id]
	if l == nil {
		d.endUnboundExchange(ctx, "dst")
		return lowdbg.DispContinue
	}
	dstActor := l.Dst.Actor
	dstActor.inFlightOp = ""
	var tok *Token
	if len(l.Tokens) > 0 {
		// Shift rather than reslice, so the in-flight list keeps its
		// backing array instead of drifting off it and regrowing.
		tok = l.Tokens[0]
		n := copy(l.Tokens, l.Tokens[1:])
		l.Tokens[n] = nil
		l.Tokens = l.Tokens[:n]
	} else {
		// A token the model never saw pushed (injected by the debugger
		// while data breakpoints were disabled, or pushed while they
		// were off): synthesize it from the observed return value.
		fv := ctx.Ret.V
		d.tokenSeq++
		tok = &Token{ID: d.tokenSeq, Hop: Hop{
			From: l.Src.Actor.Name, To: dstActor.Name,
			Iface: l.Dst.Qualified(), Type: typeName(fv), Val: fv, At: ctx.Proc.Now(),
		}}
	}
	tok.Popped = true
	l.TotalPopped++
	l.Dst.Received++
	l.Dst.LastToken = tok
	l.Dst.record(tok)
	dstActor.LastToken = tok
	dstActor.firingInputs = append(dstActor.firingInputs, tok)
	return d.evalReceiveCatch(ctx, l.Dst, tok)
}

func typeName(v filterc.Value) string {
	if v.Type == nil {
		return "?"
	}
	return v.Type.String()
}
