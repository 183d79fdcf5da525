package pedf

import (
	"fmt"

	"dfdbg/internal/fault"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
)

// Direction of a port.
type Direction int

const (
	// In is an input (consuming) port.
	In Direction = iota
	// Out is an output (producing) port.
	Out
)

func (d Direction) String() string {
	if d == In {
		return "input"
	}
	return "output"
}

// LinkKind distinguishes the arrow styles of the paper's Figure 4.
type LinkKind int

const (
	// DataLink is a pure data dependency between filters.
	DataLink LinkKind = iota
	// ControlLink originates from a module controller.
	ControlLink
	// DMALink crosses the host/fabric boundary (DMA-assisted).
	DMALink
)

func (k LinkKind) String() string {
	switch k {
	case DataLink:
		return "data"
	case ControlLink:
		return "control"
	case DMALink:
		return "dma"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// Port is a connection endpoint declared by a filter, controller, module
// or the environment.
type Port struct {
	ActorName string // owning actor's display name
	Name      string
	Dir       Direction
	Type      *filterc.Type

	owner     *Filter // nil for module and environment ports
	alias     *Port   // module ports forward to an inner port
	link      *Link
	qualified string // "actor::port", built with the port

	// The owner's intra-firing IO window: the tokens read from this
	// input so far in the current firing, or the count written to this
	// output. Filter.resetWindows clears both at every firing.
	window []filterc.Value
	writes int
}

// newPort returns a port of actor named prefix+name, building its
// qualified name in the same allocation as the name.
func newPort(actor, prefix, name string, dir Direction, typ *filterc.Type) *Port {
	q := actor + "::" + prefix + name
	return &Port{ActorName: actor, Name: q[len(actor)+2:], Dir: dir, Type: typ, qualified: q}
}

// Qualified returns the "actor::port" display name used by the paper's
// commands (e.g. "hwcfg::pipe_MbType_out").
func (p *Port) Qualified() string {
	if p.qualified != "" {
		return p.qualified
	}
	return p.ActorName + "::" + p.Name
}

// metricLabel is the link's label on its metric family, "src->dst".
func (l *Link) metricLabel() string { return l.Src.Qualified() + "->" + l.Dst.Qualified() }

// Link returns the link bound to this port (nil before elaboration).
func (p *Port) Link() *Link { return p.link }

func (p *Port) String() string { return fmt.Sprintf("%s (%s %s)", p.Qualified(), p.Dir, p.Type) }

// Token is one datum in flight on a link.
type Token struct {
	Seq      uint64 // production index on its link
	Val      filterc.Value
	PushedAt sim.Time
}

// DefaultLinkCap is the FIFO depth of a link unless overridden; a full
// link blocks the producer (the paper's link overflow stall).
const DefaultLinkCap = 32

// Link is a FIFO binding an output port to an input port.
//
// Storage is a ring (DESIGN §12): buf holds the tokens, head indexes the
// oldest, n counts occupancy. The ring grows to its high-water mark and
// stays there; a steady-state push clones into a recycled slot
// (filterc.Value.CloneInto) and a pop copies out into consumer-owned
// storage, so the per-token transfer path does not allocate.
type Link struct {
	ID   int
	Src  *Port
	Dst  *Port
	Kind LinkKind
	Cap  int

	rt       *Runtime
	buf      []Token // ring storage; live tokens are buf[head], buf[head+1], ...
	head     int     // ring index of the oldest token
	n        int     // occupancy
	pushes   uint64  // total tokens ever pushed (incl. injected/duplicated)
	pops     uint64  // total tokens ever popped
	drops    uint64  // tokens removed without a pop (surgery or drop fault)
	notEmpty *sim.Event
	notFull  *sim.Event

	// Debugger interception state, built on first use: the recycled
	// push/pop hook argument lists (DESIGN §12) and the blocked-on
	// labels.
	pushArgs, popArgs     []lowdbg.Arg
	pushReason, popReason string
}

// slot returns the i-th queued token (0 = oldest). The pointer is into
// ring storage: valid only until the token is popped.
func (l *Link) slot(i int) *Token { return &l.buf[(l.head+i)%len(l.buf)] }

// reserve returns the slot a new token should be cloned into, growing
// the ring when full. Growth unwraps the ring so existing slots keep
// exclusive ownership of their element storage.
func (l *Link) reserve() *Token {
	if l.n == len(l.buf) {
		nb := make([]Token, max(4, 2*len(l.buf)))
		for i := 0; i < l.n; i++ {
			nb[i] = *l.slot(i)
		}
		l.buf, l.head = nb, 0
	}
	return &l.buf[(l.head+l.n)%len(l.buf)]
}

// prealloc grows the ring to at least slots cells up front, so a region
// running under a proven buffer bound never grows its rings mid-run.
func (l *Link) prealloc(slots int) {
	if slots <= len(l.buf) {
		return
	}
	nb := make([]Token, slots)
	for i := 0; i < l.n; i++ {
		nb[i] = *l.slot(i)
	}
	l.buf, l.head = nb, 0
}

// commitSlot fills the reserved slot and accounts the push. The value is
// cloned into the slot's recycled storage.
func (l *Link) commitSlot(s *Token, seq uint64, v filterc.Value, at sim.Time) {
	s.Seq = seq
	s.PushedAt = at
	v.CloneInto(&s.Val)
	l.n++
	l.pushes++
}

// Label returns the source-qualified name ("actor::port") that fault
// plans and metrics use to target this link.
func (l *Link) Label() string { return l.Src.Qualified() }

func (l *Link) String() string {
	return fmt.Sprintf("link#%d %s -> %s (%s, %d/%d tokens)",
		l.ID, l.Src.Qualified(), l.Dst.Qualified(), l.Kind, l.n, l.Cap)
}

// Occupancy returns the number of tokens currently held (what Figure 4
// displays on the arcs).
func (l *Link) Occupancy() int { return l.n }

// Pushes returns the total number of tokens ever pushed.
func (l *Link) Pushes() uint64 { return l.pushes }

// Pops returns the total number of tokens ever popped.
func (l *Link) Pops() uint64 { return l.pops }

// Drops returns the number of tokens removed without a pop (debugger
// surgery or an injected drop fault). The occupancy invariant is
// Occupancy() == Pushes() - Pops() - Drops().
func (l *Link) Drops() uint64 { return l.drops }

// Peek returns the i-th queued token without consuming it. The returned
// token's aggregate payload aliases ring storage; callers must consume
// it (render, compare) before the simulation advances, as debugger
// surgery and the CLI/web display paths do under a stopped world.
func (l *Link) Peek(i int) (Token, bool) {
	if i < 0 || i >= l.n {
		return Token{}, false
	}
	return *l.slot(i), true
}

// words measures a value's size in 32-bit words for transfer costing.
func words(v filterc.Value) int {
	if v.Type == nil {
		return 1
	}
	switch v.Type.Kind {
	case filterc.KScalar:
		return 1
	default:
		n := 0
		for _, e := range v.Elems {
			n += words(e)
		}
		if n == 0 {
			n = 1
		}
		return n
	}
}

// pushSym returns the API symbol announcing pushes on this link.
func (l *Link) pushSym() string {
	if l.Kind == ControlLink {
		return SymCtrlPush
	}
	return SymLinkPush
}

// popSym returns the API symbol announcing pops on this link.
func (l *Link) popSym() string {
	if l.Kind == ControlLink {
		return SymCtrlPop
	}
	return SymLinkPop
}

// Positions of the per-call entries in a link's hook argument lists.
const (
	argIndex = 5 // push and pop: the token's index on the link
	argValue = 6 // push only: the pushed value
)

// hookList builds a push (withValue) or pop hook argument list: the
// link's identity, then the typed per-call entries. The lists are
// recycled: a push or pop writes only its per-call payloads in place
// (the index's I, the value's V), so a hooked call boxes and allocates
// nothing, and the debugger borrows the list until the hook returns.
// One process drives each list (the link's producer for push, its
// consumer for pop), and a process makes one hooked call at a time, so
// no two calls share one.
func (l *Link) hookList(withValue bool) []lowdbg.Arg {
	n := argIndex + 1
	if withValue {
		n = argValue + 1
	}
	list := make([]lowdbg.Arg, n)
	list[0] = lowdbg.IntArg("link", int64(l.ID))
	list[1] = lowdbg.StrArg("src", l.Src.ActorName)
	list[2] = lowdbg.StrArg("src_port", l.Src.Name)
	list[3] = lowdbg.StrArg("dst", l.Dst.ActorName)
	list[4] = lowdbg.StrArg("dst_port", l.Dst.Name)
	list[argIndex] = lowdbg.IntArg("index", 0)
	if withValue {
		list[argValue] = lowdbg.ValArg("value", filterc.Value{})
	}
	return list
}

// push appends a token, blocking while the FIFO is full. producer is the
// acting filter (nil for environment feeders). pe is the producing side's
// processing element.
func (l *Link) push(p *sim.Proc, producer *Filter, pe *mach.PE, v filterc.Value) error {
	if l.Src.Type.Kind == filterc.KScalar && v.IsScalar() {
		v = filterc.Int(l.Src.Type.Base, v.I) // port type coercion
	} else if l.Src.Type.Kind == filterc.KStruct &&
		(v.Type == nil || v.Type.Kind != filterc.KStruct || v.Type.Name != l.Src.Type.Name) {
		return fmt.Errorf("pedf: pushing %s token on %s link %s",
			v.Type, l.Src.Type, l.Src.Qualified())
	}
	seq := l.pushes
	var exit func(lowdbg.Datum)
	if l.rt.Dbg != nil {
		// Hook argument lists only exist when a debugger could observe
		// them; the undebugged hot path never touches them.
		if l.pushArgs == nil {
			l.pushArgs = l.hookList(true)
		}
		l.pushArgs[argIndex].I = int64(seq)
		l.pushArgs[argValue].V = v
		exit = l.rt.hookData(p, l.Src.ActorName, l.pushSym(), l.pushArgs)
	}
	rec := l.rt.K.Observer()
	fi := l.rt.K.Faults()
	capEff := l.Cap
	if fi != nil {
		capEff = fi.LinkCap(uint64(p.Now()), l.Label(), seq, l.Cap)
	}
	if l.n >= capEff {
		if l.pushReason == "" {
			l.pushReason = "push:" + l.Src.Name
		}
		reason := l.pushReason
		t0 := l.blockBegin(rec, p, producer, int32(pe.ID), reason)
		for l.n >= capEff {
			if producer != nil {
				producer.setBlocked(reason)
			}
			p.Wait(l.notFull)
		}
		l.blockEnd(rec, p, producer, int32(pe.ID), reason, t0)
	}
	if producer != nil {
		producer.setBlocked("")
	}
	// Charge the transfer from producer PE to consumer PE.
	dstPE := l.rt.portPE(l.Dst)
	l.rt.M.Transfer(p, pe, dstPE, words(v))
	var act fault.PushAction
	if fi != nil {
		var hit bool
		if act, hit = fi.OnPush(uint64(p.Now()), l.Label(), seq); hit {
			if act.CorruptMask != 0 && v.IsScalar() {
				v = filterc.Int(v.Type.Base, v.I^act.CorruptMask)
			}
			if rec.Wants(obs.KFault) {
				rec.Record(obs.Event{
					At: uint64(p.Now()), Kind: obs.KFault, PE: int32(pe.ID),
					Link: int32(l.ID), Arg2: int64(seq),
					Actor: l.Src.ActorName, Other: l.Dst.ActorName, Port: l.Src.Name,
				})
			}
		}
	}
	if act.Drop {
		// The token left the producer (transfer charged, push counted)
		// but never reached the FIFO; account it as a drop so the
		// occupancy invariant holds.
		l.pushes++
		l.drops++
		l.rt.K.NoteProgress()
		if exit != nil {
			exit(lowdbg.Datum{})
		}
		return nil
	}
	l.commitSlot(l.reserve(), seq, v, p.Now())
	l.rt.K.NoteProgress()
	l.notEmpty.Notify()
	if rec.Wants(obs.KPush) {
		ev := obs.Event{
			At: uint64(p.Now()), Kind: obs.KPush, PE: int32(pe.ID),
			Link: int32(l.ID), Arg: int64(l.n), Arg2: int64(seq),
			Actor: l.Src.ActorName, Other: l.Dst.ActorName, Port: l.Src.Name,
		}
		l.rt.recordToken(rec, ev, v)
	}
	if act.Dup {
		dseq := l.pushes
		l.commitSlot(l.reserve(), dseq, v, p.Now())
		l.notEmpty.Notify()
		if rec.Wants(obs.KPush) {
			rec.Record(obs.Event{
				At: uint64(p.Now()), Kind: obs.KPush, PE: int32(pe.ID),
				Link: int32(l.ID), Arg: int64(l.n), Arg2: int64(dseq),
				Actor: l.Src.ActorName, Other: l.Dst.ActorName, Port: l.Src.Name,
			})
		}
	}
	if exit != nil {
		exit(lowdbg.Datum{})
	}
	return nil
}

// blockBegin starts a blocked span: records KBlockBegin (actors only;
// environment feeders and drains have no attribution target) and returns
// the span start time.
func (l *Link) blockBegin(rec *obs.Recorder, p *sim.Proc, f *Filter, pe int32, reason string) sim.Time {
	t0 := p.Now()
	if f != nil && rec.Wants(obs.KBlockBegin) {
		rec.Record(obs.Event{
			At: uint64(t0), Kind: obs.KBlockBegin, PE: pe,
			Link: int32(l.ID), Actor: f.Name, Other: reason,
		})
	}
	return t0
}

// blockEnd closes a blocked span, accumulating it on the actor.
func (l *Link) blockEnd(rec *obs.Recorder, p *sim.Proc, f *Filter, pe int32, reason string, t0 sim.Time) {
	if f == nil {
		return
	}
	d := p.Now() - t0
	f.blockedNS += uint64(d)
	if rec.Wants(obs.KBlockEnd) {
		rec.Record(obs.Event{
			At: uint64(p.Now()), Kind: obs.KBlockEnd, PE: pe,
			Link: int32(l.ID), Arg2: int64(d), Actor: f.Name, Other: reason,
		})
	}
}

// pop removes the head token, blocking while the FIFO is empty. consumer
// is the acting filter (nil for environment sinks). The token's value is
// cloned into *dst — the ring retains its slot storage, so a consumer
// that reuses dst (a read-window cache slot) pops without allocating.
// The returned Token's Val is *dst.
func (l *Link) pop(p *sim.Proc, consumer *Filter, dst *filterc.Value) (Token, error) {
	seq := l.pops
	var exit func(lowdbg.Datum)
	if l.rt.Dbg != nil {
		if l.popArgs == nil {
			l.popArgs = l.hookList(false)
		}
		l.popArgs[argIndex].I = int64(seq)
		exit = l.rt.hookData(p, l.Dst.ActorName, l.popSym(), l.popArgs)
	}
	rec := l.rt.K.Observer()
	dstPE := int32(l.rt.portPE(l.Dst).ID)
	if fi := l.rt.K.Faults(); fi != nil {
		if d := fi.OnPop(uint64(p.Now()), l.Label(), seq); d > 0 {
			p.Sleep(sim.Duration(d)) // injected slow-pop fault
		}
	}
	if l.n == 0 {
		if l.popReason == "" {
			l.popReason = "pop:" + l.Dst.Name
		}
		reason := l.popReason
		t0 := l.blockBegin(rec, p, consumer, dstPE, reason)
		for l.n == 0 {
			if consumer != nil {
				consumer.setBlocked(reason)
			}
			p.Wait(l.notEmpty)
		}
		l.blockEnd(rec, p, consumer, dstPE, reason, t0)
	}
	if consumer != nil {
		consumer.setBlocked("")
	}
	s := &l.buf[l.head]
	tok := Token{Seq: s.Seq, PushedAt: s.PushedAt}
	s.Val.CloneInto(dst)
	tok.Val = *dst
	l.head = (l.head + 1) % len(l.buf)
	l.n--
	l.pops++
	l.rt.K.NoteProgress()
	l.notFull.Notify()
	// Local read cost on the consumer side.
	p.Sleep(l.rt.M.Cfg.L1Latency)
	if rec.Wants(obs.KPop) {
		ev := obs.Event{
			At: uint64(p.Now()), Kind: obs.KPop, PE: dstPE,
			Link: int32(l.ID), Arg: int64(l.n), Arg2: int64(seq),
			Actor: l.Dst.ActorName, Other: l.Src.ActorName, Port: l.Dst.Name,
		}
		l.rt.recordToken(rec, ev, tok.Val)
	}
	if exit != nil {
		exit(lowdbg.Val(tok.Val))
	}
	return tok, nil
}

// InjectToken appends a token out-of-band (the debugger's "altering the
// normal execution": inserting tokens to untie a deadlock). It bypasses
// capacity checks and hook announcement, but still counts as a push and
// emits a KInject event so timelines and occupancy accounting stay
// truthful after manual token surgery.
func (l *Link) InjectToken(v filterc.Value) {
	seq := l.pushes
	l.commitSlot(l.reserve(), seq, v, l.rt.K.Now())
	l.rt.K.NoteProgress()
	l.notEmpty.Notify()
	if rec := l.rt.K.Observer(); rec.Wants(obs.KInject) {
		ev := obs.Event{
			At: uint64(l.rt.K.Now()), Kind: obs.KInject, PE: -1,
			Link: int32(l.ID), Arg: int64(l.n), Arg2: int64(seq),
			Actor: l.Src.ActorName, Other: l.Dst.ActorName, Port: l.Src.Name,
		}
		l.rt.recordToken(rec, ev, v)
	}
}

// DropToken removes the i-th queued token out-of-band (debugger token
// deletion). It reports whether a token was removed. The removal is
// accounted in Drops (not Pops) and emits a KDropTok event.
func (l *Link) DropToken(i int) bool {
	if i < 0 || i >= l.n {
		return false
	}
	// Shift the tail down one slot, then park the dropped token's storage
	// in the vacated slot so every ring cell keeps exclusive ownership of
	// its element backing (the CloneInto reuse invariant).
	dropped := *l.slot(i)
	for j := i; j < l.n-1; j++ {
		*l.slot(j) = *l.slot(j + 1)
	}
	*l.slot(l.n - 1) = dropped
	l.n--
	l.drops++
	l.rt.K.NoteProgress()
	l.notFull.Notify()
	if rec := l.rt.K.Observer(); rec.Wants(obs.KDropTok) {
		rec.Record(obs.Event{
			At: uint64(l.rt.K.Now()), Kind: obs.KDropTok, PE: -1,
			Link: int32(l.ID), Arg: int64(l.n), Arg2: int64(i),
			Actor: l.Src.ActorName, Other: l.Dst.ActorName, Port: l.Src.Name,
		})
	}
	return true
}

// ReplaceToken overwrites the payload of the i-th queued token (debugger
// token modification), emitting a KReplace event.
func (l *Link) ReplaceToken(i int, v filterc.Value) bool {
	if i < 0 || i >= l.n {
		return false
	}
	v.CloneInto(&l.slot(i).Val)
	if rec := l.rt.K.Observer(); rec.Wants(obs.KReplace) {
		ev := obs.Event{
			At: uint64(l.rt.K.Now()), Kind: obs.KReplace, PE: -1,
			Link: int32(l.ID), Arg: int64(l.n), Arg2: int64(i),
			Actor: l.Src.ActorName, Other: l.Dst.ActorName, Port: l.Src.Name,
		}
		l.rt.recordToken(rec, ev, v)
	}
	return true
}
