package core

import (
	"fmt"
	"sort"
	"strings"

	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
)

// CatchKind enumerates dataflow catchpoint flavours.
type CatchKind int

const (
	// CatchWork stops when an actor's WORK method fires
	// (`filter pipe catch work`).
	CatchWork CatchKind = iota
	// CatchReceive stops when token-count conditions on an actor's
	// inbound interfaces are met (`filter ipred catch Pipe_in=1,Hwcfg_in=1`).
	CatchReceive
	// CatchSend is the outbound counterpart.
	CatchSend
	// CatchContent stops when a received token's payload satisfies a
	// predicate.
	CatchContent
	// CatchStepBegin stops at the beginning of a module's step.
	CatchStepBegin
	// CatchStepEnd stops at the end of a module's step.
	CatchStepEnd
	// CatchScheduled stops when a controller schedules a given filter.
	CatchScheduled
	// CatchCondition stops when an arbitrary predicate over the
	// debugger's model becomes true, evaluated after every data event —
	// Section III's conditional breakpoints "based on the number of
	// tokens transmitted, their source/destination or content".
	CatchCondition
)

func (k CatchKind) String() string {
	switch k {
	case CatchWork:
		return "work"
	case CatchReceive:
		return "receive"
	case CatchSend:
		return "send"
	case CatchContent:
		return "content"
	case CatchStepBegin:
		return "step-begin"
	case CatchStepEnd:
		return "step-end"
	case CatchScheduled:
		return "scheduled"
	case CatchCondition:
		return "condition"
	default:
		return fmt.Sprintf("CatchKind(%d)", int(k))
	}
}

// tokenCond is one interface-count condition of a receive/send catchpoint.
type tokenCond struct {
	conn *Connection
	need uint64
	base uint64 // counter value when the catchpoint was (re)armed
}

func (tc *tokenCond) counter() uint64 {
	if tc.conn.Dir == "input" {
		return tc.conn.Received
	}
	return tc.conn.Sent
}

func (tc *tokenCond) satisfied() bool { return tc.counter()-tc.base >= tc.need }

// Catchpoint is a dataflow-level stop condition.
type Catchpoint struct {
	ID      int
	Kind    CatchKind
	Actor   string // owning actor or module name
	Spec    string // display text
	Enabled bool
	OneShot bool // delete after the first hit (step_both plants these)
	Hits    int

	conds  []*tokenCond
	pred   func(filterc.Value) bool
	when   func(*Debugger) bool // CatchCondition predicate
	workBp *lowdbg.Breakpoint   // CatchWork delegates to a work-symbol breakpoint
}

func (c *Catchpoint) String() string {
	state := ""
	if !c.Enabled {
		state = " (disabled)"
	}
	if c.OneShot {
		state += " (temporary)"
	}
	return fmt.Sprintf("catch#%d %s %s %s hits=%d%s", c.ID, c.Kind, c.Actor, c.Spec, c.Hits, state)
}

// rearm resets count baselines so the catchpoint fires again on the next
// batch of tokens.
func (c *Catchpoint) rearm() {
	for _, tc := range c.conds {
		tc.base = tc.counter()
	}
}

func (d *Debugger) addCatch(c *Catchpoint) *Catchpoint {
	d.nextCatchID++
	c.ID = d.nextCatchID
	c.Enabled = true
	d.catchpoints = append(d.catchpoints, c)
	d.publishStops()
	return c
}

// publishStops tells the low-level debugger which catchpoints can stop
// the world. They stop from inside this layer's internal breakpoints,
// which lowdbg does not count as stop-capable. A `catch work`
// catchpoint is left out: its work-symbol breakpoint already counts.
func (d *Debugger) publishStops() {
	var reasons []string
	for _, c := range d.catchpoints {
		if c.Enabled && c.workBp == nil {
			reasons = append(reasons, fmt.Sprintf("catchpoint %d", c.ID))
		}
	}
	d.Low.PublishStops(reasons)
}

// Catchpoints lists the planted dataflow catchpoints.
func (d *Debugger) Catchpoints() []*Catchpoint {
	out := append([]*Catchpoint(nil), d.catchpoints...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetCatchEnabled toggles a catchpoint (cascading to the underlying
// work-symbol breakpoint for CatchWork).
func (d *Debugger) SetCatchEnabled(id int, on bool) error {
	for _, c := range d.catchpoints {
		if c.ID == id {
			c.Enabled = on
			if c.workBp != nil {
				d.Low.SetBreakEnabled(c.workBp, on)
			}
			d.publishStops()
			return nil
		}
	}
	return fmt.Errorf("core: no catchpoint #%d", id)
}

// DeleteCatch removes a catchpoint by id.
func (d *Debugger) DeleteCatch(id int) error {
	for i, c := range d.catchpoints {
		if c.ID == id {
			if c.workBp != nil {
				_ = d.Low.DeleteBp(c.workBp.ID)
			}
			d.catchpoints = append(d.catchpoints[:i], d.catchpoints[i+1:]...)
			d.publishStops()
			return nil
		}
	}
	return fmt.Errorf("core: no catchpoint #%d", id)
}

// CatchWorkOf implements `filter X catch work`: a breakpoint on the
// actor's mangled WORK symbol, whose action counts the catchpoint's
// stops.
func (d *Debugger) CatchWorkOf(actor string) (*Catchpoint, error) {
	a := d.actors[actor]
	if a == nil {
		return nil, fmt.Errorf("core: no actor %q", actor)
	}
	sym := d.workSymbolOf(a)
	bp, err := d.Low.BreakFunc(sym)
	if err != nil {
		return nil, err
	}
	c := d.addCatch(&Catchpoint{Kind: CatchWork, Actor: actor, Spec: "work", workBp: bp})
	bp.Note = fmt.Sprintf("Catchpoint %d: %s work method triggered", c.ID, actor)
	bp.Action = func(*lowdbg.StopCtx) lowdbg.Disposition {
		c.Hits++
		return lowdbg.DispStop
	}
	return c, nil
}

// workSymbolOf reconstructs the mangled symbol the same way the
// tool-chain generates it.
func (d *Debugger) workSymbolOf(a *Actor) string {
	if a.Kind == KindController {
		sym := d.Low.Syms.LookupPretty(a.Module + "::work")
		if sym != nil {
			return sym.Name
		}
	}
	sym := d.Low.Syms.LookupPretty(a.Name + "::work")
	if sym != nil {
		return sym.Name
	}
	return a.Name + "_work"
}

// CatchTokensOf implements `filter X catch iface=N[,iface=N]` and the
// wildcard `filter X catch *in=N` / `*out=N` forms. conds maps interface
// names (or "*in"/"*out") to required token counts.
func (d *Debugger) CatchTokensOf(actor string, conds map[string]uint64) (*Catchpoint, error) {
	a := d.actors[actor]
	if a == nil {
		return nil, fmt.Errorf("core: no actor %q", actor)
	}
	if len(conds) == 0 {
		return nil, fmt.Errorf("core: empty token condition")
	}
	c := &Catchpoint{Actor: actor}
	var dir string
	var specs []string
	addCond := func(conn *Connection, n uint64) error {
		if dir == "" {
			dir = conn.Dir
		} else if dir != conn.Dir {
			return fmt.Errorf("core: cannot mix input and output conditions in one catchpoint")
		}
		c.conds = append(c.conds, &tokenCond{conn: conn, need: n, base: tokenCondBase(conn)})
		specs = append(specs, fmt.Sprintf("%s=%d", conn.Name, n))
		return nil
	}
	keys := make([]string, 0, len(conds))
	for k := range conds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, iface := range keys {
		n := conds[iface]
		if n == 0 {
			n = 1
		}
		switch iface {
		case "*in":
			if len(a.Inputs) == 0 {
				return nil, fmt.Errorf("core: %s has no inputs", actor)
			}
			for _, conn := range a.Inputs {
				if err := addCond(conn, n); err != nil {
					return nil, err
				}
			}
		case "*out":
			if len(a.Outputs) == 0 {
				return nil, fmt.Errorf("core: %s has no outputs", actor)
			}
			for _, conn := range a.Outputs {
				if err := addCond(conn, n); err != nil {
					return nil, err
				}
			}
		default:
			conn := a.In(iface)
			if conn == nil {
				conn = a.Out(iface)
			}
			if conn == nil {
				return nil, fmt.Errorf("core: %s has no interface %q", actor, iface)
			}
			if err := addCond(conn, n); err != nil {
				return nil, err
			}
		}
	}
	if dir == "input" {
		c.Kind = CatchReceive
	} else {
		c.Kind = CatchSend
	}
	c.Spec = strings.Join(specs, ",")
	return d.addCatch(c), nil
}

func tokenCondBase(conn *Connection) uint64 {
	if conn.Dir == "input" {
		return conn.Received
	}
	return conn.Sent
}

// CatchContentOf stops when a token received on the qualified interface
// satisfies pred. spec is the display text for the predicate.
func (d *Debugger) CatchContentOf(qualified, spec string, pred func(filterc.Value) bool) (*Catchpoint, error) {
	conn, err := d.Connection(qualified)
	if err != nil {
		return nil, err
	}
	c := &Catchpoint{Kind: CatchContent, Actor: conn.Actor.Name,
		Spec: conn.Name + " " + spec, pred: pred,
		conds: []*tokenCond{{conn: conn}}}
	return d.addCatch(c), nil
}

// CatchStepOf stops at a module's step boundary.
func (d *Debugger) CatchStepOf(module string, atEnd bool) (*Catchpoint, error) {
	if _, ok := d.modules[module]; !ok {
		return nil, fmt.Errorf("core: no module %q", module)
	}
	kind := CatchStepBegin
	spec := "step begin"
	if atEnd {
		kind = CatchStepEnd
		spec = "step end"
	}
	return d.addCatch(&Catchpoint{Kind: kind, Actor: module, Spec: spec}), nil
}

// CatchWhen stops when pred(debugger) turns true, checked after every
// intercepted data exchange. spec is the display text.
func (d *Debugger) CatchWhen(spec string, pred func(*Debugger) bool) *Catchpoint {
	return d.addCatch(&Catchpoint{Kind: CatchCondition, Actor: "*", Spec: spec, when: pred})
}

// CatchScheduledOf stops when the controller schedules the given filter.
func (d *Debugger) CatchScheduledOf(filter string) (*Catchpoint, error) {
	if _, ok := d.actors[filter]; !ok {
		return nil, fmt.Errorf("core: no actor %q", filter)
	}
	return d.addCatch(&Catchpoint{Kind: CatchScheduled, Actor: filter, Spec: "scheduled"}), nil
}

// ---- evaluation from the event actions ----

// hitCatch handles bookkeeping shared by all hits. walk is the calling
// loop's view of d.catchpoints, which the loops walk without copying:
// deleting a one-shot catchpoint edits the live list in place, so the
// walk moves to a copy first.
func (d *Debugger) hitCatch(walk *[]*Catchpoint, c *Catchpoint, ctx *lowdbg.StopCtx, note string) lowdbg.Disposition {
	c.Hits++
	c.rearm()
	if c.OneShot {
		*walk = append([]*Catchpoint(nil), *walk...)
		_ = d.DeleteCatch(c.ID)
	}
	ctx.StopNote = note
	return lowdbg.DispStop
}

// evalReceiveCatch evaluates the catchpoints a token received on conn
// can fire. v is the payload the pop lends, which content predicates
// read in place of the stored copy.
func (d *Debugger) evalReceiveCatch(ctx *lowdbg.StopCtx, conn *Connection, v filterc.Value) lowdbg.Disposition {
	disp := lowdbg.DispContinue
	cps := d.catchpoints
	for i := 0; i < len(cps); i++ {
		c := cps[i]
		if !c.Enabled {
			continue
		}
		switch c.Kind {
		case CatchCondition:
			if c.when != nil && c.when(d) {
				disp = d.hitCatch(&cps, c, ctx, fmt.Sprintf("[Stopped: condition %s became true]", c.Spec))
			}
		case CatchReceive:
			if c.Actor != conn.Actor.Name || !condsTouch(c, conn) {
				continue
			}
			if allSatisfied(c) {
				disp = d.hitCatch(&cps, c, ctx, fmt.Sprintf(
					"[Stopped after receiving token from `%s']", conn.Qualified()))
			}
		case CatchContent:
			if len(c.conds) == 0 || c.conds[0].conn != conn || c.pred == nil {
				continue
			}
			if c.pred(v) {
				disp = d.hitCatch(&cps, c, ctx, fmt.Sprintf(
					"[Stopped: token content matched %s on `%s']", c.Spec, conn.Qualified()))
			}
		}
	}
	return disp
}

func (d *Debugger) evalSendCatch(ctx *lowdbg.StopCtx, conn *Connection) lowdbg.Disposition {
	disp := lowdbg.DispContinue
	cps := d.catchpoints
	for i := 0; i < len(cps); i++ {
		c := cps[i]
		if !c.Enabled {
			continue
		}
		if c.Kind == CatchCondition {
			if c.when != nil && c.when(d) {
				disp = d.hitCatch(&cps, c, ctx, fmt.Sprintf("[Stopped: condition %s became true]", c.Spec))
			}
			continue
		}
		if c.Kind != CatchSend {
			continue
		}
		if c.Actor != conn.Actor.Name || !condsTouch(c, conn) {
			continue
		}
		if allSatisfied(c) {
			disp = d.hitCatch(&cps, c, ctx, fmt.Sprintf(
				"[Stopped after sending token on `%s']", conn.Qualified()))
		}
	}
	return disp
}

func (d *Debugger) evalStepCatch(ctx *lowdbg.StopCtx, module string, atEnd bool) lowdbg.Disposition {
	want := CatchStepBegin
	boundary := "beginning"
	if atEnd {
		want = CatchStepEnd
		boundary = "end"
	}
	disp := lowdbg.DispContinue
	cps := d.catchpoints
	for i := 0; i < len(cps); i++ {
		c := cps[i]
		if !c.Enabled || c.Kind != want || c.Actor != module {
			continue
		}
		step := lowdbg.ArgInt(ctx.Args, "step")
		disp = d.hitCatch(&cps, c, ctx, fmt.Sprintf(
			"[Stopped at the %s of step %d of module `%s']", boundary, step, module))
	}
	return disp
}

func (d *Debugger) evalScheduledCatch(ctx *lowdbg.StopCtx, a *Actor) lowdbg.Disposition {
	disp := lowdbg.DispContinue
	cps := d.catchpoints
	for i := 0; i < len(cps); i++ {
		c := cps[i]
		if !c.Enabled || c.Kind != CatchScheduled || c.Actor != a.Name {
			continue
		}
		disp = d.hitCatch(&cps, c, ctx, fmt.Sprintf(
			"[Stopped: controller scheduled filter `%s' for execution]", a.Name))
	}
	return disp
}

func condsTouch(c *Catchpoint, conn *Connection) bool {
	for _, tc := range c.conds {
		if tc.conn == conn {
			return true
		}
	}
	return false
}

func allSatisfied(c *Catchpoint) bool {
	for _, tc := range c.conds {
		if !tc.satisfied() {
			return false
		}
	}
	return true
}
