package lowdbg

import (
	"fmt"
	"time"

	"dfdbg/internal/filterc"
	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
)

// EnterFunc is the target-program surface: the PEDF runtime calls it at
// the entry of every framework API function and of every WORK method,
// passing the mangled symbol and the parsed arguments. The returned
// closure (nil when nobody listens) must be invoked exactly once, at the
// function's return, with the return value (Datum{} when the function
// returns nothing) — that is how finish breakpoints fire.
//
// This models GDB planting breakpoints at function addresses: with no
// breakpoint on fn, the cost is one map lookup (the measurable
// always-attached overhead); with breakpoints, their actions run and may
// stop the world.
//
// args is borrowed for the call's duration (entry to return): the
// target may rewrite its payloads afterwards, so a stop event keeps its
// own copy. Arguments and the return value are typed (Datum), so
// neither the target nor the debugger boxes them, and a hit runs in a
// recycled call frame: a hit allocates nothing beyond what its actions
// do. While an observer is installed, the handlers' host cost is timed
// with two monotonic clock reads per hit.
func (d *Debugger) EnterFunc(p *sim.Proc, fn string, args []Arg) func(ret Datum) {
	d.HookCalls++
	// Armed-count fast path: with no function breakpoint planted anywhere
	// the cost is one integer compare — no map lookup, no hashing of fn.
	if d.armedFunc == 0 {
		return nil
	}
	bps := d.funcBreakpoints(fn)
	if len(bps) == 0 {
		return nil
	}
	// Cheap pre-scan: when every breakpoint on fn is disabled or gated
	// out (mitigation option 1), the only cost is this loop — no
	// allocation, no action dispatch.
	active := 0
	for _, bp := range bps {
		if bp.Enabled && !(bp.IsData && !d.DataBreakpointsEnabled) {
			active++
		}
	}
	if active == 0 {
		return nil
	}
	// Live intrusiveness accounting (only while observed: the clock
	// reads cost more than the handlers they measure on the fast path).
	rec := d.K.Observer()
	var t0 time.Duration
	if rec != nil {
		t0 = monotonic()
	}
	fr := d.frame()
	ctx := &fr.ctx // zero: fresh or released
	ctx.Dbg, ctx.Proc, ctx.Fn, ctx.Args = d, p, fn, args
	var stopBp *Breakpoint
	// Iterate over a snapshot: actions may remove breakpoints.
	fr.snapshot = append(fr.snapshot, bps...)
	for _, bp := range fr.snapshot {
		if !bp.Enabled {
			continue
		}
		if bp.IsData && !d.DataBreakpointsEnabled {
			continue
		}
		if bp.Condition != nil && !bp.Condition(ctx) {
			continue
		}
		bp.HitCount++
		disp := DispStop
		if bp.Action != nil {
			disp = bp.Action(ctx)
		} else if bp.Internal {
			disp = DispContinue
		}
		if disp == DispStop && stopBp == nil {
			stopBp = bp
		}
		if bp.OnReturn != nil {
			fr.finishers = append(fr.finishers, bp)
		}
		if bp.Temporary {
			d.removeBp(bp)
		}
	}
	if rec != nil {
		host := uint64(monotonic() - t0)
		d.bpHits++
		d.bpHostNS += host
		if d.bpHist != nil {
			d.bpHist.Observe(float64(host))
		}
		if rec.Wants(obs.KBpHit) {
			rec.Record(obs.Event{
				At: uint64(d.K.Now()), Kind: obs.KBpHit, PE: -1,
				Arg: int64(host), Arg2: int64(active), Actor: fn,
			})
		}
	}
	if stopBp != nil {
		kind := StopBreakpoint
		if stopBp.Internal {
			kind = StopAction
		}
		reason := fmt.Sprintf("Breakpoint %d, %s (%s)", stopBp.ID, fn, formatArgs(args))
		if stopBp.Note != "" {
			reason = stopBp.Note
		}
		if ctx.StopNote != "" {
			reason = ctx.StopNote
		}
		d.stopWorld(p, &StopEvent{
			Kind: kind, Reason: reason, Proc: p, Fn: fn, Bp: stopBp, Args: cloneArgs(args),
		})
	}
	if len(fr.finishers) == 0 {
		d.release(fr)
		return nil
	}
	return fr.exit
}

// epoch anchors monotonic: a Time read once with a monotonic reading,
// so time.Since(epoch) reads only the monotonic clock.
var epoch = time.Now()

// monotonic returns the monotonic clock relative to the process epoch:
// one clock read where time.Now reads both the wall and the monotonic
// clock. Differences of two readings are exact durations.
func monotonic() time.Duration { return time.Since(epoch) }

// callFrame is the recycled state of one intercepted call or line
// breakpoint hit that ran breakpoint handlers: the context its actions
// see, the breakpoint snapshot, the finish breakpoints collected at
// entry and the return hook handed back to the target. A frame is owned
// by its call from entry until the return hook ran (or, without
// finishers, until the hit's handlers are done); a world stop inside
// either keeps it owned.
type callFrame struct {
	d         *Debugger
	ctx       StopCtx
	snapshot  []*Breakpoint
	finishers []*Breakpoint
	exit      func(ret Datum) // fr.finish, bound once per frame
}

// frame takes a call frame off the debugger's free list.
func (d *Debugger) frame() *callFrame {
	if n := len(d.frames); n > 0 {
		fr := d.frames[n-1]
		d.frames = d.frames[:n-1]
		return fr
	}
	fr := &callFrame{d: d}
	fr.exit = fr.finish
	return fr
}

// release returns a frame to the free list, dropping its references.
func (d *Debugger) release(fr *callFrame) {
	fr.ctx = StopCtx{}
	clear(fr.snapshot)
	clear(fr.finishers)
	fr.snapshot, fr.finishers = fr.snapshot[:0], fr.finishers[:0]
	d.frames = append(d.frames, fr)
}

// finish is a frame's return hook: it runs the finish breakpoints
// collected at entry, in entry order, each able to stop the world before
// the next runs, then recycles the frame.
func (fr *callFrame) finish(ret Datum) {
	d := fr.d
	// The context keeps the call's Dbg, Proc, Fn and Args from entry.
	ctx := &fr.ctx
	ctx.Ret, ctx.IsReturn, ctx.StopNote = ret, true, ""
	p, fn, args := ctx.Proc, ctx.Fn, ctx.Args
	for _, bp := range fr.finishers {
		if !bp.Enabled {
			continue
		}
		if bp.IsData && !d.DataBreakpointsEnabled {
			continue
		}
		if bp.OnReturn(ctx) == DispStop {
			reason := fmt.Sprintf("Finish breakpoint %d, %s returned %v", bp.ID, fn, ret)
			if bp.Note != "" {
				reason = bp.Note
			}
			if ctx.StopNote != "" {
				reason = ctx.StopNote
			}
			d.stopWorld(p, &StopEvent{
				Kind: StopAction, Reason: reason, Proc: p, Fn: fn,
				Bp: bp, Args: cloneArgs(args), Ret: ret, IsReturn: true,
			})
		}
	}
	d.release(fr)
}

// cloneArgs copies a borrowed argument list for a stop event, which
// outlives the call.
func cloneArgs(args []Arg) []Arg {
	if len(args) == 0 {
		return args
	}
	return append([]Arg(nil), args...)
}

// formatArgs renders an argument list as "name=value, name=value".
func formatArgs(args []Arg) string {
	var b []byte
	for i, a := range args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = a.appendTo(b)
	}
	return string(b)
}

// interpHooks routes filterc statement/call events into the debugger:
// line breakpoints, watchpoint checks and step requests. It chains to
// whatever hooks the runtime installed first (compute-cost charging).
type interpHooks struct {
	d     *Debugger
	p     *sim.Proc
	chain filterc.Hooks
}

func (h *interpHooks) OnStmt(fr *filterc.Frame, pos filterc.Pos) {
	if h.chain != nil {
		h.chain.OnStmt(fr, pos)
	}
	d := h.d
	d.HookCalls++

	// Armed-count fast path: with no line breakpoint, watchpoint or step
	// request anywhere, a statement costs a counter bump and one integer
	// compare.
	if d.armedStmt == 0 {
		return
	}
	if bps := d.lineBPs[lineLoc{pos.File, pos.Line}]; len(bps) > 0 && d.lineHit(h.p, fr, pos, bps) {
		return
	}

	// Watchpoints (software: compare on every statement).
	for _, w := range d.watchpoints {
		if !w.Enabled {
			continue
		}
		if !w.val.Equal(w.old) {
			oldS := w.old.String()
			w.old = w.val.Clone()
			w.HitCount++
			d.clearStep()
			d.stopWorld(h.p, &StopEvent{
				Kind: StopWatchpoint,
				Reason: fmt.Sprintf("Watchpoint %d: %s changed %s -> %s",
					w.ID, w.Sym, oldS, w.val.String()),
				Proc: h.p, Fn: fr.FuncName(), Pos: pos,
			})
			return
		}
	}

	// Step requests.
	if d.stepKind == stepNone || d.stepProc != h.p {
		return
	}
	in := d.interps[h.p]
	if in == nil {
		return
	}
	depth := in.Depth()
	hit := false
	switch d.stepKind {
	case stepInto:
		hit = depth != d.stepDepth || pos.Line != d.stepLine || pos.File != d.stepFile
	case stepOver:
		hit = depth < d.stepDepth ||
			(depth == d.stepDepth && (pos.Line != d.stepLine || pos.File != d.stepFile))
	case stepOut:
		hit = depth < d.stepDepth
	}
	if hit {
		d.clearStep()
		d.stopWorld(h.p, &StopEvent{
			Kind:   StopStep,
			Reason: fmt.Sprintf("%s () at %s:%d", fr.FuncName(), pos.File, pos.Line),
			Proc:   h.p, Fn: fr.FuncName(), Pos: pos,
		})
	}
}

// lineHit runs the line breakpoints planted at pos in a recycled call
// frame, as EnterFunc runs function breakpoints, and reports whether
// one stopped the world. A hit that does not stop allocates nothing
// beyond what its condition and action do.
func (d *Debugger) lineHit(p *sim.Proc, sf *filterc.Frame, pos filterc.Pos, bps []*Breakpoint) bool {
	fr := d.frame()
	ctx := &fr.ctx // zero: fresh or released
	ctx.Dbg, ctx.Proc, ctx.Fn, ctx.Pos, ctx.Frame = d, p, sf.FuncName(), pos, sf
	// Iterate over a snapshot: actions may remove breakpoints.
	fr.snapshot = append(fr.snapshot, bps...)
	stopped := false
	for _, bp := range fr.snapshot {
		if !bp.Enabled {
			continue
		}
		if bp.Condition != nil && !bp.Condition(ctx) {
			continue
		}
		bp.HitCount++
		disp := DispStop
		if bp.Action != nil {
			disp = bp.Action(ctx)
		} else if bp.Internal {
			disp = DispContinue
		}
		if bp.Temporary {
			d.removeBp(bp)
		}
		if disp == DispStop {
			d.clearStep()
			d.stopWorld(p, &StopEvent{
				Kind: StopBreakpoint,
				Reason: fmt.Sprintf("Breakpoint %d, %s () at %s:%d",
					bp.ID, sf.FuncName(), pos.File, pos.Line),
				Proc: p, Fn: sf.FuncName(), Pos: pos, Bp: bp,
			})
			stopped = true
			break
		}
	}
	d.release(fr)
	return stopped
}

func (h *interpHooks) OnEnter(fr *filterc.Frame) {
	if h.chain != nil {
		h.chain.OnEnter(fr)
	}
}

func (h *interpHooks) OnExit(fr *filterc.Frame, ret filterc.Value) {
	if h.chain != nil {
		h.chain.OnExit(fr, ret)
	}
}
