package pedf

import (
	"fmt"
	"strconv"

	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
)

// Start elaborates the application (resolving bindings into links) and
// spawns the framework's simulation processes: an init process replaying
// the registration API (so an attached debugger can reconstruct the
// graph), then one process per controller, filter, feeder and collector.
//
// After Start, drive the kernel with the debugger's Continue/Step (or
// Kernel.Run when undebugged).
func (rt *Runtime) Start() error {
	if rt.started {
		return fmt.Errorf("pedf: Start called twice")
	}
	if err := rt.Elaborate(true); err != nil {
		return err
	}
	rt.started = true
	rt.registerTargetFuncs()
	rt.registerObsMetrics()
	rt.K.Spawn("pedf.init", func(p *sim.Proc) {
		rt.replayRegistrations(p)
		rt.spawnActors()
	})
	return nil
}

// registerTargetFuncs exposes runtime helpers to the debugger (the
// "call an inferior function" surface used for token alteration and
// two-level state queries).
func (rt *Runtime) registerTargetFuncs() {
	if rt.Dbg == nil {
		return
	}
	linkByID := func(args []any, n int) (*Link, error) {
		if len(args) < n {
			return nil, fmt.Errorf("pedf: expected at least %d argument(s)", n)
		}
		id, ok := args[0].(int64)
		if !ok {
			return nil, fmt.Errorf("pedf: link id must be int64, got %T", args[0])
		}
		for _, l := range rt.links {
			if int64(l.ID) == id {
				return l, nil
			}
		}
		return nil, fmt.Errorf("pedf: no link #%d", id)
	}
	argIdx := func(args []any, i int) (int64, error) {
		n, ok := args[i].(int64)
		if !ok {
			return 0, fmt.Errorf("pedf: argument %d must be int64, got %T", i, args[i])
		}
		return n, nil
	}
	argVal := func(args []any, i int) (filterc.Value, error) {
		v, ok := args[i].(filterc.Value)
		if !ok {
			return filterc.Value{}, fmt.Errorf("pedf: argument %d must be a token value, got %T", i, args[i])
		}
		return v, nil
	}
	rt.Dbg.RegisterTargetFunc(TFLinkInject, func(args ...any) (any, error) {
		l, err := linkByID(args, 2)
		if err != nil {
			return nil, err
		}
		v, err := argVal(args, 1)
		if err != nil {
			return nil, err
		}
		l.InjectToken(v)
		return nil, nil
	})
	rt.Dbg.RegisterTargetFunc(TFLinkDrop, func(args ...any) (any, error) {
		l, err := linkByID(args, 2)
		if err != nil {
			return nil, err
		}
		i, err := argIdx(args, 1)
		if err != nil {
			return nil, err
		}
		if !l.DropToken(int(i)) {
			return nil, fmt.Errorf("pedf: no token %d on link #%d", i, l.ID)
		}
		return nil, nil
	})
	rt.Dbg.RegisterTargetFunc(TFLinkReplace, func(args ...any) (any, error) {
		l, err := linkByID(args, 3)
		if err != nil {
			return nil, err
		}
		i, err := argIdx(args, 1)
		if err != nil {
			return nil, err
		}
		v, err := argVal(args, 2)
		if err != nil {
			return nil, err
		}
		if !l.ReplaceToken(int(i), v) {
			return nil, fmt.Errorf("pedf: no token %d on link #%d", i, l.ID)
		}
		return nil, nil
	})
	rt.Dbg.RegisterTargetFunc(TFLinkPeek, func(args ...any) (any, error) {
		l, err := linkByID(args, 2)
		if err != nil {
			return nil, err
		}
		i, err := argIdx(args, 1)
		if err != nil {
			return nil, err
		}
		tok, ok := l.Peek(int(i))
		if !ok {
			return nil, fmt.Errorf("pedf: no token %d on link #%d", i, l.ID)
		}
		return tok.Val, nil
	})
	rt.Dbg.RegisterTargetFunc(TFLinkOccupancy, func(args ...any) (any, error) {
		l, err := linkByID(args, 1)
		if err != nil {
			return nil, err
		}
		return int64(l.Occupancy()), nil
	})
	rt.Dbg.RegisterTargetFunc(TFLinkInjectZero, func(args ...any) (any, error) {
		// The unstick recovery path: inject a typed zero token. Only the
		// runtime knows the link's concrete type, so the debugger model
		// (which holds type names as strings) calls down here.
		l, err := linkByID(args, 1)
		if err != nil {
			return nil, err
		}
		v := filterc.Zero(l.Dst.Type)
		l.InjectToken(v)
		return v, nil
	})
	actorArg := func(args []any) (*Filter, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("pedf: missing actor name")
		}
		name, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("pedf: actor name must be string, got %T", args[0])
		}
		f := rt.ActorByName(name)
		if f == nil {
			return nil, fmt.Errorf("pedf: no actor %q", name)
		}
		return f, nil
	}
	rt.Dbg.RegisterTargetFunc(TFFilterLine, func(args ...any) (any, error) {
		f, err := actorArg(args)
		if err != nil {
			return nil, err
		}
		return int64(f.CurrentLine()), nil
	})
	rt.Dbg.RegisterTargetFunc(TFFilterBlocked, func(args ...any) (any, error) {
		f, err := actorArg(args)
		if err != nil {
			return nil, err
		}
		return f.BlockedOn(), nil
	})
}

// Elaborate resolves recorded bindings into links. With strict set,
// every actor port must end up connected (the Start-time invariant);
// without it, dangling ports are tolerated — architecture tools (mindc)
// use this to inspect partial designs. Idempotent.
func (rt *Runtime) Elaborate(strict bool) error {
	if rt.elaborated {
		if strict {
			return rt.checkConnectivity()
		}
		return nil
	}
	rt.elaborated = true
	for _, bs := range rt.binds {
		src, err := resolve(bs.a)
		if err != nil {
			return err
		}
		dst, err := resolve(bs.b)
		if err != nil {
			return err
		}
		if src.Dir != Out || dst.Dir != In {
			return fmt.Errorf("pedf: binding %s -> %s does not resolve to output -> input",
				src.Qualified(), dst.Qualified())
		}
		if src.link != nil {
			return fmt.Errorf("pedf: output %s bound twice", src.Qualified())
		}
		if dst.link != nil {
			return fmt.Errorf("pedf: input %s bound twice", dst.Qualified())
		}
		if !typesMatch(src.Type, dst.Type) {
			return fmt.Errorf("pedf: type mismatch on link %s (%s) -> %s (%s)",
				src.Qualified(), src.Type, dst.Qualified(), dst.Type)
		}
		kind := DataLink
		switch {
		case src.ActorName == EnvActor || dst.ActorName == EnvActor:
			kind = DMALink
		case src.owner != nil && src.owner.Role == RoleController:
			kind = ControlLink
		}
		id := len(rt.links) + 1
		notEmpty, notFull := waitEventNames(id)
		l := &Link{
			ID: id, Src: src, Dst: dst, Kind: kind,
			Cap: rt.LinkCap, rt: rt,
			notEmpty: rt.K.NewEvent(notEmpty),
			notFull:  rt.K.NewEvent(notFull),
		}
		src.link = l
		dst.link = l
		rt.links = append(rt.links, l)
	}
	// Wire feeders and collectors to their elaborated links.
	for i := range rt.feeders {
		fs := &rt.feeders[i]
		if fs.src.link == nil {
			return fmt.Errorf("pedf: feeder %s did not elaborate", fs.src.Qualified())
		}
	}
	for _, col := range rt.collectors {
		if col.Port.link == nil {
			return fmt.Errorf("pedf: collector %s did not elaborate", col.Port.Qualified())
		}
		col.link = col.Port.link
	}
	if strict {
		return rt.checkConnectivity()
	}
	return nil
}

// checkConnectivity verifies every actor port is bound to a link.
func (rt *Runtime) checkConnectivity() error {
	for _, f := range rt.actorList {
		for _, n := range f.inNames {
			if f.ins[n].link == nil {
				return fmt.Errorf("pedf: input %s is unbound", f.ins[n].Qualified())
			}
		}
		for _, n := range f.outNames {
			if f.outs[n].link == nil {
				return fmt.Errorf("pedf: output %s is unbound", f.outs[n].Qualified())
			}
		}
	}
	return nil
}

// replayRegistrations announces the application structure through the
// framework API — the initialization-phase calls the dataflow debugger's
// graph reconstruction intercepts. A hook borrows its arguments only
// until it returns, so every call lends out the same buffer.
func (rt *Runtime) replayRegistrations(p *sim.Proc) {
	var args []lowdbg.Arg
	announce := func(fn string, a ...lowdbg.Arg) {
		args = append(args[:0], a...)
		if exit := rt.hook(p, fn, args); exit != nil {
			exit(lowdbg.Datum{})
		}
	}
	for _, m := range rt.moduleList {
		parent := ""
		if m.Parent != nil {
			parent = m.Parent.Name
		}
		announce(SymRegisterModule, lowdbg.StrArg("module", m.Name), lowdbg.StrArg("parent", parent))
		for _, pn := range m.portNames {
			port := m.ports[pn]
			announce(SymRegisterPort,
				lowdbg.StrArg("actor", m.Name), lowdbg.StrArg("port", pn),
				lowdbg.StrArg("dir", port.Dir.String()), lowdbg.StrArg("type", port.Type.String()))
		}
	}
	for _, f := range rt.actorList {
		if f.Role == RoleController {
			announce(SymRegisterController,
				lowdbg.StrArg("module", f.Module.Name), lowdbg.StrArg("controller", f.Name))
		} else {
			announce(SymRegisterFilter,
				lowdbg.StrArg("filter", f.Name), lowdbg.StrArg("module", f.Module.Name))
		}
		for _, n := range f.inNames {
			announce(SymRegisterPort,
				lowdbg.StrArg("actor", f.Name), lowdbg.StrArg("port", n),
				lowdbg.StrArg("dir", "input"), lowdbg.StrArg("type", f.ins[n].Type.String()))
		}
		for _, n := range f.outNames {
			announce(SymRegisterPort,
				lowdbg.StrArg("actor", f.Name), lowdbg.StrArg("port", n),
				lowdbg.StrArg("dir", "output"), lowdbg.StrArg("type", f.outs[n].Type.String()))
		}
	}
	for _, l := range rt.links {
		args = appendBindArgs(args[:0], l)
		if exit := rt.hook(p, SymBind, args); exit != nil {
			exit(lowdbg.Datum{})
		}
	}
}

// appendBindArgs appends the pedf_bind hook argument list announcing l.
func appendBindArgs(dst []lowdbg.Arg, l *Link) []lowdbg.Arg {
	return append(dst,
		lowdbg.IntArg("link", int64(l.ID)),
		lowdbg.StrArg("src", l.Src.ActorName), lowdbg.StrArg("src_port", l.Src.Name),
		lowdbg.StrArg("dst", l.Dst.ActorName), lowdbg.StrArg("dst_port", l.Dst.Name),
		lowdbg.StrArg("kind", l.Kind.String()),
	)
}

// procName is the name of f's process: "ctl.<name>" for a controller,
// "flt.<name>" for a filter. Once f is spawned it is its process's own.
func (f *Filter) procName() string {
	if f.proc != nil {
		return f.proc.Name()
	}
	if f.Role == RoleController {
		return "ctl." + f.Name
	}
	return "flt." + f.Name
}

// spawnActors launches controller, filter, feeder and collector
// processes in deterministic order.
func (rt *Runtime) spawnActors() {
	for _, f := range rt.actorList {
		f := f
		if f.Role == RoleController {
			f.proc = rt.M.SpawnOn(f.PE, f.procName(), func(p *sim.Proc) { rt.controllerLoop(p, f) })
		} else {
			f.proc = rt.M.SpawnOn(f.PE, f.procName(), func(p *sim.Proc) { rt.filterLoop(p, f) })
		}
		if f.Prog != nil {
			f.interp = filterc.New(f.Prog, &filterEnv{f: f})
			f.interp.Engine = rt.FilterCEngine
			f.interp.Hooks = &costHooks{f: f}
			if rt.Dbg != nil {
				rt.Dbg.AttachInterp(f.proc, f.interp)
			}
		}
	}
	for i := range rt.feeders {
		fs := rt.feeders[i]
		rt.M.SpawnOn(rt.M.Host, "env.feed."+fs.src.Name, func(p *sim.Proc) {
			for i := 0; i < fs.count(); i++ {
				if err := fs.src.link.push(p, nil, rt.M.Host, fs.token(i)); err != nil {
					panic(err)
				}
			}
		})
	}
	for _, col := range rt.collectors {
		col := col
		proc := rt.M.SpawnOn(rt.M.Host, "env.drain."+col.Port.Name, func(p *sim.Proc) {
			for {
				// Each collected value is retained forever, so it gets its
				// own storage (dst declared per iteration).
				var dst filterc.Value
				if _, err := col.link.pop(p, nil, &dst); err != nil {
					panic(err)
				}
				col.Values = append(col.Values, dst)
			}
		})
		proc.Daemon = true
	}
}

// filterLoop is a filter process body: wait for ACTOR_START, run WORK
// firings until ACTOR_SYNC, forever (until module shutdown).
func (rt *Runtime) filterLoop(p *sim.Proc, f *Filter) {
	defer rt.containCrash(f)
	for {
		for !f.startReq && !f.shutdown {
			p.Wait(f.startEv)
		}
		if f.shutdown {
			f.setState(StateDone)
			return
		}
		f.startReq = false
		f.setState(StateRunning)
		for {
			if err := rt.invokeWork(p, f); err != nil {
				panic(err)
			}
			f.firings++
			if f.syncReq || f.shutdown {
				f.syncReq = false
				break
			}
		}
		f.setState(StateSynced)
	}
}

// invokeWork runs one WORK firing under the work-symbol hook.
func (rt *Runtime) invokeWork(p *sim.Proc, f *Filter) error {
	f.resetWindows()
	var exit func(lowdbg.Datum)
	if rt.Dbg != nil {
		exit = rt.Dbg.EnterFunc(p, f.workSym, f.workArgs(f.firings))
	}
	rec := rt.K.Observer()
	t0 := p.Now()
	if rec.Wants(obs.KFireBegin) {
		rec.Record(obs.Event{
			At: uint64(t0), Kind: obs.KFireBegin, PE: int32(f.PE.ID),
			Arg: int64(f.firings), Actor: f.Name, Other: f.Module.Name,
		})
	}
	if fi := rt.K.Faults(); fi != nil {
		if act, ok := fi.OnFire(uint64(p.Now()), f.Name, f.firings); ok {
			if rec.Wants(obs.KFault) {
				rec.Record(obs.Event{
					At: uint64(p.Now()), Kind: obs.KFault, PE: int32(f.PE.ID),
					Arg: int64(f.firings), Actor: f.Name, Other: f.Module.Name,
				})
			}
			if act.StallNS > 0 {
				p.Sleep(sim.Duration(act.StallNS)) // injected filter stall
			}
			if act.Panic {
				panic(&CrashError{Actor: f.Name, Firing: f.firings,
					Value: fmt.Errorf("fault: injected work-function panic")})
			}
		}
	}
	var err error
	var v filterc.Value
	if f.Prog != nil {
		v, err = f.interp.CallFunc("work", nil)
	} else {
		err = f.NativeWork(&WorkCtx{f: f, p: p})
	}
	// Settle any lazy compute banked after the last IO of the firing so
	// the KFireEnd timestamp matches the per-token engine.
	f.flushLazy()
	dur := p.Now() - t0
	if rec.Wants(obs.KFireEnd) {
		rec.Record(obs.Event{
			At: uint64(p.Now()), Kind: obs.KFireEnd, PE: int32(f.PE.ID),
			Arg: int64(f.firings), Arg2: int64(dur), Actor: f.Name, Other: f.Module.Name,
		})
	}
	if rt.fireHist != nil {
		rt.fireHist.Observe(float64(dur))
	}
	if exit != nil {
		exit(workRet(f, v))
	}
	return err
}

// workRet is a WORK method's return as its finish hook reports it: the
// filterc return value, or none for a native WORK.
func workRet(f *Filter, v filterc.Value) lowdbg.Datum {
	if f.Prog == nil {
		return lowdbg.Datum{}
	}
	return lowdbg.Val(v)
}

// controllerLoop runs the module's step protocol.
func (rt *Runtime) controllerLoop(p *sim.Proc, c *Filter) {
	defer rt.containCrash(c)
	m := c.Module
	c.setState(StateRunning)
	for !m.done {
		rt.hookStep(p, m, SymStepBegin)
		if rec := rt.K.Observer(); rec.Wants(obs.KStepBegin) {
			rec.Record(obs.Event{
				At: uint64(p.Now()), Kind: obs.KStepBegin, PE: int32(c.PE.ID),
				Arg: int64(m.step), Actor: m.Name,
			})
		}
		c.resetWindows()
		cont, err := rt.invokeController(p, c)
		if err != nil {
			panic(err)
		}
		rt.hookStep(p, m, SymStepEnd)
		if rec := rt.K.Observer(); rec.Wants(obs.KStepEnd) {
			rec.Record(obs.Event{
				At: uint64(p.Now()), Kind: obs.KStepEnd, PE: int32(c.PE.ID),
				Arg: int64(m.step), Actor: m.Name,
			})
		}
		m.step++
		if !cont {
			m.done = true
		}
	}
	// Module finished: release the filters.
	for _, f := range m.Filters {
		f.shutdown = true
		f.startEv.Notify()
	}
	c.setState(StateDone)
}

// hookStep reports a step-protocol call (begin or end of module m's
// current step).
func (rt *Runtime) hookStep(p *sim.Proc, m *Module, sym string) {
	if rt.Dbg == nil {
		return
	}
	if m.stepArgs == nil {
		m.stepArgs = []lowdbg.Arg{lowdbg.StrArg("module", m.Name), lowdbg.IntArg("step", 0)}
	}
	m.stepArgs[1].I = int64(m.step)
	if exit := rt.Dbg.EnterFunc(p, sym, m.stepArgs); exit != nil {
		exit(lowdbg.Datum{})
	}
}

// invokeController runs one controller WORK step; the return value (or
// the native bool) decides whether the module continues.
func (rt *Runtime) invokeController(p *sim.Proc, c *Filter) (bool, error) {
	var exit func(lowdbg.Datum)
	if rt.Dbg != nil {
		exit = rt.Dbg.EnterFunc(p, c.workSym, c.workArgs(c.Module.step))
	}
	rec := rt.K.Observer()
	if rec.Wants(obs.KCtlBegin) {
		rec.Record(obs.Event{
			At: uint64(p.Now()), Kind: obs.KCtlBegin, PE: int32(c.PE.ID),
			Arg: int64(c.Module.step), Actor: c.Name, Other: c.Module.Name,
		})
	}
	var cont bool
	var err error
	var v filterc.Value
	if c.Prog != nil {
		v, err = c.interp.CallFunc("work", nil)
		cont = v.I != 0
	} else {
		cont, err = c.NativeCtl(&CtlCtx{WorkCtx{f: c, p: p}})
	}
	if rec.Wants(obs.KCtlEnd) {
		rec.Record(obs.Event{
			At: uint64(p.Now()), Kind: obs.KCtlEnd, PE: int32(c.PE.ID),
			Arg: int64(c.Module.step), Actor: c.Name, Other: c.Module.Name,
		})
	}
	if exit != nil {
		exit(workRet(c, v))
	}
	c.firings++
	return cont, err
}

// actorStart implements ACTOR_START(name) for a module's controller.
func (rt *Runtime) actorStart(p *sim.Proc, m *Module, name string) error {
	f := m.FilterByName(name)
	if f == nil {
		return fmt.Errorf("pedf: ACTOR_START(%q): no such filter in module %s", name, m.Name)
	}
	exit := rt.hook(p, SymActorStart, f.schedArgs())
	if rec := rt.K.Observer(); rec.Wants(obs.KActorStart) {
		rec.Record(obs.Event{
			At: uint64(p.Now()), Kind: obs.KActorStart, PE: int32(f.PE.ID),
			Actor: name, Other: m.Name,
		})
	}
	f.startReq = true
	f.pendingInit = true
	if f.state == StateIdle || f.state == StateSynced {
		f.setState(StateScheduled)
	} else if f.state == StateRunning {
		// Already executing: the start is satisfied immediately.
		f.pendingInit = false
	}
	f.startEv.Notify()
	if exit != nil {
		exit(lowdbg.Datum{})
	}
	return nil
}

// actorSync implements ACTOR_SYNC(name).
func (rt *Runtime) actorSync(p *sim.Proc, m *Module, name string) error {
	f := m.FilterByName(name)
	if f == nil {
		return fmt.Errorf("pedf: ACTOR_SYNC(%q): no such filter in module %s", name, m.Name)
	}
	exit := rt.hook(p, SymActorSync, f.schedArgs())
	if rec := rt.K.Observer(); rec.Wants(obs.KActorSync) {
		rec.Record(obs.Event{
			At: uint64(p.Now()), Kind: obs.KActorSync, PE: int32(f.PE.ID),
			Actor: name, Other: m.Name,
		})
	}
	if f.state == StateRunning || f.state == StateScheduled || f.startReq {
		f.syncReq = true
		f.pendingSync = true
	}
	if exit != nil {
		exit(lowdbg.Datum{})
	}
	return nil
}

// waitActorInit implements WAIT_FOR_ACTOR_INIT().
func (rt *Runtime) waitActorInit(p *sim.Proc, m *Module) {
	exit := rt.hook(p, SymWaitActorInit, m.waitArgs())
	rt.waitPending(p, m, "wait:init", func() bool {
		for _, f := range m.Filters {
			if f.pendingInit {
				return true
			}
		}
		return false
	})
	if exit != nil {
		exit(lowdbg.Datum{})
	}
}

// waitActorSync implements WAIT_FOR_ACTOR_SYNC().
func (rt *Runtime) waitActorSync(p *sim.Proc, m *Module) {
	exit := rt.hook(p, SymWaitActorSync, m.waitArgs())
	rt.waitPending(p, m, "wait:sync", func() bool {
		for _, f := range m.Filters {
			if f.pendingSync {
				return true
			}
		}
		return false
	})
	if exit != nil {
		exit(lowdbg.Datum{})
	}
}

// waitPending blocks the controller on the module's state-change event
// until pending() clears, attributing the wait as a blocked span.
func (rt *Runtime) waitPending(p *sim.Proc, m *Module, reason string, pending func() bool) {
	if !pending() {
		return
	}
	c := m.Controller
	rec := rt.K.Observer()
	t0 := p.Now()
	if c != nil && rec.Wants(obs.KBlockBegin) {
		rec.Record(obs.Event{
			At: uint64(t0), Kind: obs.KBlockBegin, PE: int32(c.PE.ID),
			Actor: c.Name, Other: reason,
		})
	}
	for pending() {
		p.Wait(m.stateChange)
	}
	if c == nil {
		return
	}
	d := p.Now() - t0
	c.blockedNS += uint64(d)
	if rec.Wants(obs.KBlockEnd) {
		rec.Record(obs.Event{
			At: uint64(p.Now()), Kind: obs.KBlockEnd, PE: int32(c.PE.ID),
			Arg2: int64(d), Actor: c.Name, Other: reason,
		})
	}
}

// waitEventNames returns the names of link id's two wait events,
// "link<id>.notEmpty" and "link<id>.notFull", cut from one string: only
// stall and deadlock reports read them.
func waitEventNames(id int) (notEmpty, notFull string) {
	var buf [64]byte
	b := strconv.AppendInt(append(buf[:0], "link"...), int64(id), 10)
	n := len(b)
	b = append(b, ".notEmpty"...)
	cut := len(b)
	b = append(append(b, b[:n]...), ".notFull"...)
	s := string(b)
	return s[:cut], s[cut:]
}
