package filterc

import "fmt"

// Env is the external world a filterc program runs against. The PEDF
// runtime implements it for filters (blocking IO on data links) and
// controllers (scheduling intrinsics).
//
// Values cross the boundary without copies: the interpreter copies a
// value before it keeps one, and the environment must do the same.
type Env interface {
	// IORead consumes the token at index idx of an input interface. It
	// may block (the calling simulation process waits for data). The
	// result may share storage with the environment, which must leave
	// that storage unchanged until the call returns.
	IORead(iface string, idx int64) (Value, error)
	// IOWrite produces a token at index idx of an output interface. It
	// may block when the link is full. v may share storage with the
	// interpreter's variables: an environment that keeps it copies it.
	IOWrite(iface string, idx int64, v Value) error
	// DataRef returns an lvalue for pedf.data.NAME.
	DataRef(name string) (*Value, error)
	// AttrRef returns an lvalue for pedf.attribute.NAME.
	AttrRef(name string) (*Value, error)
	// Intrinsic handles a call the interpreter does not know (ACTOR_START
	// and friends). handled=false falls through to "unknown function".
	// args is the interpreter's operand stack: read it, do not keep it.
	Intrinsic(name string, args []Value) (v Value, handled bool, err error)
}

// Hooks receives debugger callbacks at statement and call granularity.
type Hooks interface {
	// OnStmt fires before each executable statement (and before each loop
	// condition re-evaluation), after the frame's Line field is updated.
	OnStmt(fr *Frame, pos Pos)
	// OnEnter fires when a function frame is pushed.
	OnEnter(fr *Frame)
	// OnExit fires when a function frame is about to pop.
	OnExit(fr *Frame, ret Value)
}

// RuntimeError is an execution error with source position.
type RuntimeError struct {
	Pos Pos
	Msg string
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// VarBinding is one visible variable of a frame, for debugger display.
type VarBinding struct {
	Name string
	Val  *Value
}

// Frame is one activation record. Frames come in two layouts sharing one
// inspection API: the tree-walker uses a stack of name→value scopes, the
// bytecode VM uses compile-time-resolved slots plus a liveness bitmap
// (fc != nil). Debugger code never needs to know which engine produced
// a frame. A VM frame is recycled by the next call at its depth, so it
// is valid only while its call runs.
type Frame struct {
	Fn     *FuncDecl
	Line   int
	parent *Frame
	depth  int       // call depth (0 for the outermost call)
	scopes []scope   // tree-walker engine
	fc     *funcCode // bytecode engine: compiled metadata (slot→name map)
	slots  []Value   // bytecode engine: variable storage
	ints   []int64   // bytecode engine: typed scalar slots' payloads
	live   []bool    // bytecode engine: which slots are in scope
}

type scope struct {
	names []string
	vars  map[string]*Value
}

// FuncName returns the frame's function name.
func (fr *Frame) FuncName() string { return fr.Fn.Name }

// Parent returns the calling frame (nil for the outermost call).
func (fr *Frame) Parent() *Frame { return fr.parent }

// Locals returns the visible variables, innermost scope last so shadowed
// names appear once (the inner binding wins).
func (fr *Frame) Locals() []VarBinding {
	seen := make(map[string]bool)
	var out []VarBinding
	if fr.fc != nil {
		// Lexical scopes are numbered in open order; the live ones at any
		// program point are nested, so a higher id means a deeper scope —
		// iterating ids downwards visits innermost first, exactly like
		// walking the tree-walker's scope stack from the top.
		for s := len(fr.fc.scopeSlots) - 1; s >= 0; s-- {
			for _, slot := range fr.fc.scopeSlots[s] {
				if !fr.live[slot] {
					continue
				}
				n := fr.fc.slotNames[slot]
				if n == "" || seen[n] {
					continue
				}
				seen[n] = true
				out = append(out, VarBinding{Name: n, Val: fr.slotValue(slot)})
			}
		}
		return out
	}
	for i := len(fr.scopes) - 1; i >= 0; i-- {
		sc := fr.scopes[i]
		for _, n := range sc.names {
			if seen[n] {
				continue
			}
			seen[n] = true
			out = append(out, VarBinding{Name: n, Val: sc.vars[n]})
		}
	}
	return out
}

// Lookup finds a visible variable by name.
func (fr *Frame) Lookup(name string) (*Value, bool) {
	if fr.fc != nil {
		// Slots are allocated in declaration order, and among live slots
		// with the same name the later-declared one is the inner binding,
		// so a reverse scan resolves shadowing the way the walker does.
		names := fr.fc.slotNames
		for i := len(names) - 1; i >= 0; i-- {
			if names[i] == name && fr.live[i] {
				return fr.slotValue(int32(i)), true
			}
		}
		return nil, false
	}
	for i := len(fr.scopes) - 1; i >= 0; i-- {
		if v, ok := fr.scopes[i].vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// slotValue returns a VM slot's storage for inspection. A typed scalar
// lives in fr.ints; its Value form is written out first, so the result
// is a snapshot that the program's later stores do not update.
func (fr *Frame) slotValue(slot int32) *Value {
	if b := fr.fc.slotBase[slot]; b != dynBase {
		fr.slots[slot] = Value{Type: &scalarTypes[b], I: fr.ints[slot]}
	}
	return &fr.slots[slot]
}

func (fr *Frame) pushScope() {
	fr.scopes = append(fr.scopes, scope{vars: make(map[string]*Value)})
}

func (fr *Frame) popScope() {
	fr.scopes = fr.scopes[:len(fr.scopes)-1]
}

func (fr *Frame) declare(name string, v Value) error {
	sc := &fr.scopes[len(fr.scopes)-1]
	if _, dup := sc.vars[name]; dup {
		return fmt.Errorf("variable %q redeclared in the same scope", name)
	}
	val := v
	sc.vars[name] = &val
	sc.names = append(sc.names, name)
	return nil
}

// DefaultMaxSteps bounds statement executions per top-level call, as a
// runaway-loop guard (the simulator would otherwise hang on `while(1);`).
const DefaultMaxSteps = 50_000_000

// ctrl is the statement-level control-flow outcome.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// Interp executes a Program against an Env. By default it runs compiled
// bytecode on a stack VM (see compile.go / vm.go); set Engine (or build
// with -tags slowinterp) to select the tree-walking interpreter, which
// is kept as the differential-testing oracle. Both engines expose
// identical observable behaviour.
type Interp struct {
	Prog     *Program
	Env      Env
	Hooks    Hooks
	MaxSteps int64
	Engine   Engine

	steps int64
	top   *Frame
	code  *Code         // cached compiled form (VM engine)
	acts  []*activation // VM engine: recycled activations, by call depth
}

// New creates an interpreter.
func New(prog *Program, env Env) *Interp {
	return &Interp{Prog: prog, Env: env, MaxSteps: DefaultMaxSteps}
}

// Stack returns the current call stack, innermost frame first. Valid
// while execution is parked inside a hook.
func (in *Interp) Stack() []*Frame {
	var out []*Frame
	for fr := in.top; fr != nil; fr = fr.parent {
		out = append(out, fr)
	}
	return out
}

// CurrentFrame returns the innermost frame, or nil when not executing.
func (in *Interp) CurrentFrame() *Frame { return in.top }

// Depth returns the current call-stack depth.
func (in *Interp) Depth() int {
	d := 0
	for fr := in.top; fr != nil; fr = fr.parent {
		d++
	}
	return d
}

// CallFunc invokes a program function from outside (e.g. the PEDF runtime
// invoking a filter's work method). Scalar arguments are converted to the
// parameter types.
func (in *Interp) CallFunc(name string, args []Value) (Value, error) {
	fn := in.Prog.Func(name)
	if fn == nil {
		return Value{}, fmt.Errorf("filterc: no function %q in %s", name, in.Prog.File)
	}
	in.steps = 0
	if in.useVM() {
		if in.code == nil {
			in.code = in.Prog.compiled()
		}
		return in.vmCall(in.code, in.code.funcs[name], args, fn.Pos)
	}
	return in.call(fn, args, fn.Pos)
}

func (in *Interp) call(fn *FuncDecl, args []Value, at Pos) (Value, error) {
	if len(args) != len(fn.Params) {
		return Value{}, &RuntimeError{Pos: at,
			Msg: fmt.Sprintf("%s expects %d argument(s), got %d", fn.Name, len(fn.Params), len(args))}
	}
	fr := &Frame{Fn: fn, Line: fn.Pos.Line, parent: in.top}
	if in.top != nil {
		fr.depth = in.top.depth + 1
	}
	fr.pushScope()
	for i, p := range fn.Params {
		a := args[i]
		if !argFits(p.Type, a) {
			return Value{}, &RuntimeError{Pos: at,
				Msg: fmt.Sprintf("argument %d of %s: cannot pass %s as %s", i+1, fn.Name, a.Type, p.Type)}
		}
		if p.Type.Kind == KScalar && a.IsScalar() {
			a = Int(p.Type.Base, a.I)
		}
		if err := fr.declare(p.Name, a.Clone()); err != nil {
			return Value{}, &RuntimeError{Pos: at, Msg: err.Error()}
		}
	}
	in.top = fr
	if in.Hooks != nil {
		in.Hooks.OnEnter(fr)
	}
	c, ret, err := in.execBlock(fr, fn.Body)
	if err != nil {
		in.top = fr.parent
		return Value{}, err
	}
	if c != ctrlReturn {
		ret = VoidVal()
	}
	if fn.Ret.Kind == KScalar && fn.Ret.Base != Void && ret.IsScalar() {
		ret = Int(fn.Ret.Base, ret.I)
	}
	if in.Hooks != nil {
		in.Hooks.OnExit(fr, ret)
	}
	in.top = fr.parent
	return ret, nil
}

// argFits reports whether a may be passed for a parameter of type t: a
// numeric parameter takes only a number, any other a compatible value.
// Both engines check arguments with it.
func argFits(t *Type, a Value) bool {
	if declBase(t) != dynBase {
		return a.IsScalar()
	}
	return typeCompatible(t, a.Type)
}

func typeCompatible(want, got *Type) bool {
	if want == nil || got == nil {
		return false
	}
	if want.Kind != got.Kind {
		return false
	}
	switch want.Kind {
	case KScalar:
		return true
	case KArray:
		return want.Len == got.Len && typeCompatible(want.Elem, got.Elem)
	case KStruct:
		return want.Name == got.Name
	default:
		return false
	}
}

func (in *Interp) hookStmt(fr *Frame, pos Pos) error {
	fr.Line = pos.Line
	in.steps++
	if in.MaxSteps > 0 && in.steps > in.MaxSteps {
		return &RuntimeError{Pos: pos, Msg: "statement budget exceeded (runaway loop?)"}
	}
	if in.Hooks != nil {
		in.Hooks.OnStmt(fr, pos)
	}
	return nil
}

func (in *Interp) execBlock(fr *Frame, blk *BlockStmt) (ctrl, Value, error) {
	fr.pushScope()
	defer fr.popScope()
	for _, s := range blk.Stmts {
		c, v, err := in.exec(fr, s)
		if err != nil || c != ctrlNone {
			return c, v, err
		}
	}
	return ctrlNone, Value{}, nil
}

func (in *Interp) exec(fr *Frame, s Stmt) (ctrl, Value, error) {
	switch s := s.(type) {
	case *BlockStmt:
		return in.execBlock(fr, s)

	case *DeclStmt:
		if err := in.hookStmt(fr, s.P); err != nil {
			return ctrlNone, Value{}, err
		}
		v := Zero(s.Type)
		if s.Init != nil {
			iv, err := in.eval(fr, s.Init)
			if err != nil {
				return ctrlNone, Value{}, err
			}
			cv, err := convertForAssign(s.Type, iv, s.P)
			if err != nil {
				return ctrlNone, Value{}, err
			}
			v = cv
		}
		if err := fr.declare(s.Name, v); err != nil {
			return ctrlNone, Value{}, &RuntimeError{Pos: s.P, Msg: err.Error()}
		}
		return ctrlNone, Value{}, nil

	case *ExprStmt:
		if err := in.hookStmt(fr, s.P); err != nil {
			return ctrlNone, Value{}, err
		}
		_, err := in.eval(fr, s.X)
		return ctrlNone, Value{}, err

	case *IfStmt:
		if err := in.hookStmt(fr, s.P); err != nil {
			return ctrlNone, Value{}, err
		}
		c, err := in.eval(fr, s.Cond)
		if err != nil {
			return ctrlNone, Value{}, err
		}
		if c.Truth() {
			return in.exec(fr, s.Then)
		}
		if s.Else != nil {
			return in.exec(fr, s.Else)
		}
		return ctrlNone, Value{}, nil

	case *WhileStmt:
		for {
			if err := in.hookStmt(fr, s.P); err != nil {
				return ctrlNone, Value{}, err
			}
			c, err := in.eval(fr, s.Cond)
			if err != nil {
				return ctrlNone, Value{}, err
			}
			if !c.Truth() {
				return ctrlNone, Value{}, nil
			}
			ct, v, err := in.exec(fr, s.Body)
			if err != nil {
				return ctrlNone, Value{}, err
			}
			switch ct {
			case ctrlBreak:
				return ctrlNone, Value{}, nil
			case ctrlReturn:
				return ct, v, nil
			}
		}

	case *ForStmt:
		fr.pushScope()
		defer fr.popScope()
		if s.Init != nil {
			if c, v, err := in.exec(fr, s.Init); err != nil || c != ctrlNone {
				return c, v, err
			}
		}
		for {
			if err := in.hookStmt(fr, s.P); err != nil {
				return ctrlNone, Value{}, err
			}
			if s.Cond != nil {
				c, err := in.eval(fr, s.Cond)
				if err != nil {
					return ctrlNone, Value{}, err
				}
				if !c.Truth() {
					return ctrlNone, Value{}, nil
				}
			}
			ct, v, err := in.exec(fr, s.Body)
			if err != nil {
				return ctrlNone, Value{}, err
			}
			switch ct {
			case ctrlBreak:
				return ctrlNone, Value{}, nil
			case ctrlReturn:
				return ct, v, nil
			}
			if s.Post != nil {
				if _, _, err := in.exec(fr, s.Post); err != nil {
					return ctrlNone, Value{}, err
				}
			}
		}

	case *SwitchStmt:
		if err := in.hookStmt(fr, s.P); err != nil {
			return ctrlNone, Value{}, err
		}
		cond, err := in.eval(fr, s.Cond)
		if err != nil {
			return ctrlNone, Value{}, err
		}
		if !cond.IsScalar() {
			return ctrlNone, Value{}, &RuntimeError{Pos: s.P, Msg: "switch condition must be scalar"}
		}
		// Find the matching case (or default), then run with C
		// fallthrough until a break.
		start := -1
		defaultIdx := -1
		for i, cs := range s.Cases {
			if cs.Vals == nil {
				defaultIdx = i
				continue
			}
			for _, ve := range cs.Vals {
				v, err := in.eval(fr, ve)
				if err != nil {
					return ctrlNone, Value{}, err
				}
				if v.IsScalar() && caseMatches(cond.Type.Base, cond.I, v.I) {
					start = i
					break
				}
			}
			if start >= 0 {
				break
			}
		}
		if start < 0 {
			start = defaultIdx
		}
		if start < 0 {
			return ctrlNone, Value{}, nil
		}
		fr.pushScope()
		defer fr.popScope()
		for i := start; i < len(s.Cases); i++ {
			for _, sub := range s.Cases[i].Stmts {
				c, v, err := in.exec(fr, sub)
				if err != nil {
					return ctrlNone, Value{}, err
				}
				switch c {
				case ctrlBreak:
					return ctrlNone, Value{}, nil
				case ctrlReturn, ctrlContinue:
					return c, v, nil
				}
			}
		}
		return ctrlNone, Value{}, nil

	case *ReturnStmt:
		if err := in.hookStmt(fr, s.P); err != nil {
			return ctrlNone, Value{}, err
		}
		if s.X == nil {
			return ctrlReturn, VoidVal(), nil
		}
		v, err := in.eval(fr, s.X)
		if err != nil {
			return ctrlNone, Value{}, err
		}
		return ctrlReturn, v, nil

	case *BreakStmt:
		if err := in.hookStmt(fr, s.P); err != nil {
			return ctrlNone, Value{}, err
		}
		return ctrlBreak, Value{}, nil

	case *ContinueStmt:
		if err := in.hookStmt(fr, s.P); err != nil {
			return ctrlNone, Value{}, err
		}
		return ctrlContinue, Value{}, nil

	default:
		return ctrlNone, Value{}, &RuntimeError{Pos: s.stmtPos(), Msg: fmt.Sprintf("unknown statement %T", s)}
	}
}

// convertForAssign coerces v into type t with C semantics; the result
// shares no storage with v.
func convertForAssign(t *Type, v Value, at Pos) (Value, error) {
	nv, err := convertValue(t, v, at)
	if err != nil || nv.Elems == nil {
		return nv, err
	}
	return nv.Clone(), nil
}

// convertValue is convertForAssign without the copy: a compatible
// aggregate comes back sharing v's storage.
func convertValue(t *Type, v Value, at Pos) (Value, error) {
	if t.Kind == KScalar {
		if t.Base == Str {
			if v.Type != nil && v.Type.Kind == KScalar && v.Type.Base == Str {
				return v, nil
			}
			return Value{}, &RuntimeError{Pos: at, Msg: "cannot assign non-string to string"}
		}
		if !v.IsScalar() {
			return Value{}, &RuntimeError{Pos: at, Msg: fmt.Sprintf("cannot assign %s to %s", v.Type, t)}
		}
		return Int(t.Base, v.I), nil
	}
	if !typeCompatible(t, v.Type) {
		return Value{}, &RuntimeError{Pos: at, Msg: fmt.Sprintf("cannot assign %s to %s", v.Type, t)}
	}
	return v, nil
}
