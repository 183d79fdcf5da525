package filterc

import "fmt"

// The bytecode VM. One dispatch loop (run) executes the instruction set;
// it consults Hooks.OnStmt at every opStmt, like the walker's hookStmt,
// so hooks may attach or detach themselves mid-run. The hot opcodes are
// inlined in the loop; the cold ones live in (*vm).step and its helpers.
//
// A steady-state firing allocates nothing here. Every call depth owns a
// recycled activation (frame, slots, liveness, the operand stacks and
// the reference stack), and aggregates move by reference: loads borrow,
// and only the instructions that keep a value (declarations, stores,
// parameters) copy it, into storage they already own. The copies that
// allocate are an aggregate return value and an aggregate operand that
// must outlive the evaluation of the operands after it (the left side
// of ==, every call argument but the last). Typed scalars never become
// Values unless they leave for the value stack.

// activation is the recycled execution state of one call depth. An
// Interp keeps one per depth it has reached; a call at depth d reuses
// acts[d], so steady-state calls allocate nothing.
type activation struct {
	fr    Frame
	stack []Value  // value stack
	is    []int64  // int stack
	refs  []*Value // lvalue reference stack
}

// activation returns the recycled activation of a call depth.
func (in *Interp) activation(depth int) *activation {
	for len(in.acts) <= depth {
		// Sized for typical filter code, so a fresh Interp's first
		// call does not grow its stacks one doubling at a time.
		in.acts = append(in.acts, &activation{
			stack: make([]Value, 0, 8), is: make([]int64, 0, 16), refs: make([]*Value, 0, 4)})
	}
	return in.acts[depth]
}

// vm is the per-call execution state of the bytecode engine.
type vm struct {
	in    *Interp
	code  *Code
	fc    *funcCode
	fr    *Frame
	stack []Value  // value stack
	is    []int64  // int stack
	refs  []*Value // lvalue reference stack
}

func (m *vm) push(v Value) { m.stack = append(m.stack, v) }

func (m *vm) pop() Value {
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return v
}

func (m *vm) ipush(x int64) { m.is = append(m.is, x) }

func (m *vm) ipop() int64 {
	x := m.is[len(m.is)-1]
	m.is = m.is[:len(m.is)-1]
	return x
}

func (m *vm) pushRef(r *Value) { m.refs = append(m.refs, r) }

func (m *vm) popRef() *Value {
	r := m.refs[len(m.refs)-1]
	m.refs = m.refs[:len(m.refs)-1]
	return r
}

func (m *vm) undefErr(pc int, slot int32) error {
	return &RuntimeError{Pos: m.fc.pos[pc],
		Msg: fmt.Sprintf("undefined variable %q", m.fc.slotNames[slot])}
}

// vmCall pushes a frame and runs a compiled function, mirroring the
// walker's call(): same argument conversion, same error positions, same
// OnEnter/OnExit placement, no OnExit on error. Arguments are copied
// into the parameter slots, so they may borrow the caller's storage.
func (in *Interp) vmCall(code *Code, fc *funcCode, args []Value, at Pos) (Value, error) {
	fn := fc.fn
	if len(args) != len(fn.Params) {
		return Value{}, &RuntimeError{Pos: at,
			Msg: fmt.Sprintf("%s expects %d argument(s), got %d", fn.Name, len(fn.Params), len(args))}
	}
	depth := 0
	if in.top != nil {
		depth = in.top.depth + 1
	}
	act := in.activation(depth)
	fr := &act.fr
	*fr = Frame{Fn: fn, Line: fn.Pos.Line, parent: in.top, depth: depth, fc: fc,
		slots: fr.slots, ints: fr.ints, live: fr.live}
	if n := fc.nslots; cap(fr.slots) < n {
		fr.slots, fr.ints, fr.live = make([]Value, n), make([]int64, n), make([]bool, n)
	} else {
		fr.slots, fr.ints, fr.live = fr.slots[:n], fr.ints[:n], fr.live[:n]
		clear(fr.live)
	}
	for i, p := range fn.Params {
		a := args[i]
		if !argFits(p.Type, a) {
			return Value{}, &RuntimeError{Pos: at,
				Msg: fmt.Sprintf("argument %d of %s: cannot pass %s as %s", i+1, fn.Name, a.Type, p.Type)}
		}
		for j := 0; j < i; j++ {
			if fn.Params[j].Name == p.Name {
				return Value{}, &RuntimeError{Pos: at,
					Msg: fmt.Sprintf("variable %q redeclared in the same scope", p.Name)}
			}
		}
		switch b := fc.slotBase[i]; {
		case b != dynBase:
			fr.ints[i] = truncate(b, a.I)
		case p.Type.Kind == KScalar && a.IsScalar():
			fr.slots[i] = Int(p.Type.Base, a.I)
		default:
			a.CloneInto(&fr.slots[i])
		}
		fr.live[i] = true
	}
	in.top = fr
	if in.Hooks != nil {
		in.Hooks.OnEnter(fr)
	}
	ret, err := in.run(code, fc, act)
	if err != nil {
		in.top = fr.parent
		return Value{}, err
	}
	if fn.Ret.Kind == KScalar && fn.Ret.Base != Void && ret.IsScalar() {
		ret = Int(fn.Ret.Base, ret.I)
	}
	if in.Hooks != nil {
		// The walker pops every block scope before OnExit fires; only
		// the parameters remain visible to frame inspection.
		clear(fr.live[len(fn.Params):])
		in.Hooks.OnExit(fr, ret)
	}
	in.top = fr.parent
	return ret, nil
}

// run is the dispatch loop. The stacks start empty on the activation's
// recycled storage and are handed back to it on every exit, so their
// capacity survives to the next call.
func (in *Interp) run(code *Code, fc *funcCode, act *activation) (Value, error) {
	fr := &act.fr
	m := vm{in: in, code: code, fc: fc, fr: fr,
		stack: act.stack[:0], is: act.is[:0], refs: act.refs[:0]}
	defer func() {
		act.stack, act.is, act.refs = m.stack[:0], m.is[:0], m.refs[:0]
	}()
	cs := fc.code
	pc := 0
	for {
		i := cs[pc]
		switch i.op {
		case opStmt:
			fr.Line = int(i.a)
			in.steps++
			if in.MaxSteps > 0 && in.steps > in.MaxSteps {
				return Value{}, &RuntimeError{Pos: fc.pos[pc],
					Msg: "statement budget exceeded (runaway loop?)"}
			}
			if h := in.Hooks; h != nil {
				h.OnStmt(fr, fc.pos[pc])
			}

		// --- typed scalars ---
		case opIConst:
			m.ipush(fc.consts[i.a].I)
		case opILoad:
			if !fr.live[i.a] {
				return Value{}, m.undefErr(pc, i.a)
			}
			m.ipush(fr.ints[i.a])
		case opILoadV:
			if !fr.live[i.a] {
				return Value{}, m.undefErr(pc, i.a)
			}
			m.push(Value{Type: &scalarTypes[i.b], I: fr.ints[i.a]})
		case opIDecl:
			fr.ints[i.a] = truncate(BaseType(i.b), m.ipop())
			fr.live[i.a] = true
		case opIStore:
			x := truncate(BaseType(i.b), m.ipop())
			fr.ints[i.a] = x
			if i.c == 0 {
				m.ipush(x)
			}
		case opIInc:
			if i.c&2 != 0 && !fr.live[i.a] {
				return Value{}, m.undefErr(pc, i.a)
			}
			old, mode := fr.ints[i.a], i.b&0xff
			x := old + 1
			if mode == decPre || mode == decPost {
				x = old - 1
			}
			x = truncate(BaseType(i.b>>8), x)
			fr.ints[i.a] = x
			if i.c&1 == 0 {
				if mode == incPost || mode == decPost {
					x = old
				}
				m.ipush(x)
			}
		case opIBin, opIBinSS, opIBinSC, opIBinTS, opIBinTC:
			var l, r int64
			id, lb, rb := i.a, BaseType(i.b), BaseType(i.c)
			switch i.op {
			case opIBin:
				r = m.ipop()
				l = m.ipop()
			case opIBinSS:
				if !fr.live[i.a] {
					return Value{}, m.undefErr(pc, i.a)
				}
				if !fr.live[i.b] {
					return Value{}, m.undefErr(pc, i.b)
				}
				l, r = fr.ints[i.a], fr.ints[i.b]
			case opIBinSC:
				if !fr.live[i.a] {
					return Value{}, m.undefErr(pc, i.a)
				}
				l, r = fr.ints[i.a], fc.consts[i.b].I
			case opIBinTS:
				if !fr.live[i.a] {
					return Value{}, m.undefErr(pc, i.a)
				}
				l, r = m.ipop(), fr.ints[i.a]
			default: // opIBinTC
				l, r = m.ipop(), fc.consts[i.a].I
			}
			if i.op != opIBin {
				id, lb, rb = i.c&0xff, BaseType(i.c>>8&0xff), BaseType(i.c>>16)
			}
			x, ok := binInt(id, lb, rb, l, r)
			if !ok {
				return Value{}, applyBinaryErr(int(id), binOpNames[id], r, fc.pos[pc])
			}
			m.ipush(x)
		case opIJFCmpSS, opIJFCmpSC:
			if !fr.live[i.a] {
				return Value{}, m.undefErr(pc, i.a)
			}
			l := fr.ints[i.a]
			var r int64
			if i.op == opIJFCmpSS {
				if !fr.live[i.b] {
					return Value{}, m.undefErr(pc, i.b)
				}
				r = fr.ints[i.b]
			} else {
				r = fc.consts[i.b].I
			}
			if i.c&16 != 0 {
				l, r = int64(uint32(l)), int64(uint32(r))
			}
			var tr bool
			switch i.c & 15 {
			case bEq:
				tr = l == r
			case bNe:
				tr = l != r
			case bLt:
				tr = l < r
			case bLe:
				tr = l <= r
			case bGt:
				tr = l > r
			default: // bGe
				tr = l >= r
			}
			if !tr {
				pc = int(i.c >> 5)
				continue
			}
		case opIJumpFalse:
			if m.ipop() == 0 {
				pc = int(i.a)
				continue
			}
		case opIAndSC:
			if m.ipop() == 0 {
				m.ipush(0)
				pc = int(i.a)
				continue
			}
		case opIOrSC:
			if m.ipop() != 0 {
				m.ipush(1)
				pc = int(i.a)
				continue
			}
		case opITruth:
			m.ipush(b2i(m.ipop() != 0))
		case opIBox:
			m.push(Value{Type: &scalarTypes[i.a], I: m.ipop()})
		case opIPop:
			m.is = m.is[:len(m.is)-1]
		case opIBuiltin:
			n := len(m.is) - int(i.b)
			x := builtinInt(i.a, BaseType(i.c&0xff), BaseType(i.c>>8), m.is[n:])
			m.is = append(m.is[:n], x)

		// --- values ---
		case opConst:
			m.push(fc.consts[i.a])
		case opLoadSlot:
			if !fr.live[i.a] {
				return Value{}, m.undefErr(pc, i.a)
			}
			m.push(load(fr.slots[i.a], i.c))
		case opCheckSlot:
			if !fr.live[i.a] {
				return Value{}, m.undefErr(pc, i.a)
			}
		case opZero:
			// A declaration without initializer zeroes in place,
			// reusing the slot's element storage.
			if n := cs[pc+1]; n.op == opDeclSlot {
				zeroInto(&fr.slots[n.a], fc.types[i.a])
				fr.live[n.a] = true
				pc += 2
				continue
			}
			m.push(Zero(fc.types[i.a]))
		case opDeclSlot:
			m.pop().CloneInto(&fr.slots[i.a])
			fr.live[i.a] = true
		case opBinary:
			r := m.pop()
			l := m.pop()
			if l.IsScalar() && r.IsScalar() {
				if v, ok := applyBinaryFast(int(i.a), l.Type.Base, r.Type.Base, l.I, r.I); ok {
					m.push(v)
					break
				}
				return Value{}, applyBinaryErr(int(i.a), fc.names[i.b], r.I, fc.pos[pc])
			}
			v, err := m.binarySlow(int(i.a), fc.names[i.b], l, r, pc)
			if err != nil {
				return Value{}, err
			}
			m.push(v)
		case opBinTC:
			// Constant operands are read in place: binary operators never
			// retain or mutate their operands.
			l := m.pop()
			r := &fc.consts[i.a]
			if l.IsScalar() && r.IsScalar() {
				if v, ok := applyBinaryFast(int(i.c), l.Type.Base, r.Type.Base, l.I, r.I); ok {
					m.push(v)
					break
				}
			}
			v, err := m.binFused(i.c, l, *r, pc)
			if err != nil {
				return Value{}, err
			}
			m.push(v)
		case opJump:
			pc = int(i.a)
			continue
		case opJumpFalse:
			if m.pop().I == 0 {
				pc = int(i.a)
				continue
			}
		case opAndSC:
			if m.pop().I == 0 {
				m.push(Int(Bool, 0))
				pc = int(i.a)
				continue
			}
		case opOrSC:
			if m.pop().I != 0 {
				m.push(Int(Bool, 1))
				pc = int(i.a)
				continue
			}
		case opTruthBool:
			v := m.pop()
			m.push(Int(Bool, b2i(v.I != 0)))
		case opPop:
			m.stack = m.stack[:len(m.stack)-1]
		case opKill:
			for _, s := range fc.scopeSlots[i.a] {
				fr.live[s] = false
			}
		case opCaseEq:
			v := m.pop()
			if cond := &fr.slots[i.a]; v.IsScalar() && caseMatches(cond.Type.Base, cond.I, v.I) {
				pc = int(i.b)
				continue
			}
		case opRet:
			v := m.pop()
			if v.Elems != nil {
				// The callee's activation is recycled: hand the caller
				// a copy it owns.
				v = v.Clone()
			}
			return v, nil
		case opRetVoid:
			return VoidVal(), nil
		default:
			if err := m.step(pc, i); err != nil {
				return Value{}, err
			}
		}
		pc++
	}
}

func (m *vm) incCommon(lv *Value, mode int32) error {
	switch mode {
	case incPre:
		*lv = Int(lv.Type.Base, lv.I+1)
		m.push(*lv)
	case decPre:
		*lv = Int(lv.Type.Base, lv.I-1)
		m.push(*lv)
	case incPost:
		old := *lv
		*lv = Int(lv.Type.Base, lv.I+1)
		m.push(old)
	default: // decPost
		old := *lv
		*lv = Int(lv.Type.Base, lv.I-1)
		m.push(old)
	}
	return nil
}

// binarySlow handles binary ops when either operand is non-scalar: deep
// equality for ==/!=, the walker's needs-scalar error otherwise.
func (m *vm) binarySlow(id int, opstr string, l, r Value, pc int) (Value, error) {
	if id == bEq || id == bNe {
		eq := l.Equal(r)
		if id == bNe {
			eq = !eq
		}
		return Int(Bool, b2i(eq)), nil
	}
	return Value{}, &RuntimeError{Pos: m.fc.pos[pc],
		Msg: fmt.Sprintf("operator %s needs scalar operands, got %s and %s", opstr, l.Type, r.Type)}
}

// binFused applies opBinTC when an operand is not a numeric scalar or
// the kernel refuses. The fused op's single position equals every
// constituent position (the peephole pass guarantees it), so errors
// match exactly.
func (m *vm) binFused(id int32, l, r Value, pc int) (Value, error) {
	if !l.IsScalar() || !r.IsScalar() {
		return m.binarySlow(int(id), binOpNames[id], l, r, pc)
	}
	return applyBinaryID(int(id), binOpNames[id], l, r, m.fc.pos[pc])
}

// step executes the cold opcodes. None of them changes the program
// counter.
func (m *vm) step(pc int, i ins) error {
	in, fc, fr := m.in, m.fc, m.fr
	switch i.op {
	case opStoreSlot:
		lv := &fr.slots[i.a]
		if err := storeInto(lv, m.pop(), fc.pos[pc]); err != nil {
			return err
		}
		if i.c == 0 {
			m.push(*lv)
		}

	case opIComp, opICompV:
		id, base := i.b&0xff, BaseType(i.b>>16)
		var r int64
		rb := BaseType(i.b >> 8 & 0xff)
		if i.op == opIComp {
			r = m.ipop()
		} else {
			rv := m.pop()
			if !rv.IsScalar() {
				return &RuntimeError{Pos: fc.pos[pc], Msg: "compound assignment needs scalar operands"}
			}
			r, rb = rv.I, rv.Type.Base
		}
		x, ok := binInt(id, base, rb, fr.ints[i.a], r)
		if !ok {
			return applyBinaryErr(int(id), binOpNames[id], r, fc.pos[pc])
		}
		x = truncate(base, x)
		fr.ints[i.a] = x
		if i.c == 0 {
			m.ipush(x)
		}

	case opIConv:
		// The one checked conversion from a run-time typed Value into a
		// typed scalar, as an assignment performs it.
		v := m.pop()
		if !v.IsScalar() {
			return &RuntimeError{Pos: fc.pos[pc],
				Msg: fmt.Sprintf("cannot assign %s to %s", v.Type, BaseType(i.a))}
		}
		m.ipush(truncate(BaseType(i.a), v.I))

	case opIUnary:
		x, b := m.ipop(), BaseType(i.b)
		switch i.a {
		case 0:
			x = truncate(promoteBase(b, I32), -x)
		case 1:
			x = truncate(promoteBase(b, I32), ^x)
		default:
			x = b2i(x == 0)
		}
		m.ipush(x)

	case opConv:
		// The declaration that follows copies the value into its slot.
		v, err := convertValue(fc.types[i.a], m.pop(), fc.pos[pc])
		if err != nil {
			return err
		}
		m.push(v)

	case opErr:
		return &RuntimeError{Pos: fc.pos[pc], Msg: fc.names[i.a]}

	case opRefSlot:
		if !fr.live[i.a] {
			return m.undefErr(pc, i.a)
		}
		// Only a failing index or member access refers to a typed
		// scalar; its Value form gives the error its type name.
		m.pushRef(fr.slotValue(i.a))

	case opRefData:
		v, err := in.Env.DataRef(fc.names[i.a])
		if err != nil {
			return &RuntimeError{Pos: fc.pos[pc], Msg: err.Error()}
		}
		m.pushRef(v)

	case opRefAttr:
		v, err := in.Env.AttrRef(fc.names[i.a])
		if err != nil {
			return &RuntimeError{Pos: fc.pos[pc], Msg: err.Error()}
		}
		m.pushRef(v)

	case opCheckArr:
		b := m.refs[len(m.refs)-1]
		if b.Type == nil || b.Type.Kind != KArray {
			return &RuntimeError{Pos: fc.pos[pc], Msg: fmt.Sprintf("indexing non-array %s", b.Type)}
		}

	case opRefIndex:
		idx := m.index(i.c)
		b := m.refs[len(m.refs)-1]
		if idx < 0 || idx >= int64(len(b.Elems)) {
			return &RuntimeError{Pos: fc.pos[pc],
				Msg: fmt.Sprintf("index %d out of range [0,%d)", idx, len(b.Elems))}
		}
		m.refs[len(m.refs)-1] = &b.Elems[idx]

	case opRefMember:
		b := m.refs[len(m.refs)-1]
		if b.Type == nil || b.Type.Kind != KStruct {
			return &RuntimeError{Pos: fc.pos[pc],
				Msg: fmt.Sprintf("member access on non-struct %s", b.Type)}
		}
		name := fc.names[i.a]
		fi := b.Type.FieldIndex(name)
		if fi < 0 {
			return &RuntimeError{Pos: fc.pos[pc],
				Msg: fmt.Sprintf("struct %s has no field %q", b.Type.Name, name)}
		}
		m.refs[len(m.refs)-1] = &b.Elems[fi]

	case opLoadRef:
		m.push(load(*m.popRef(), i.c))

	case opStoreRef:
		rv := m.pop()
		ref := m.popRef()
		if err := storeInto(ref, rv, fc.pos[pc]); err != nil {
			return err
		}
		m.push(*ref)

	case opCompRef:
		rv := m.pop()
		ref := m.popRef()
		if !ref.IsScalar() || !rv.IsScalar() {
			return &RuntimeError{Pos: fc.pos[pc], Msg: "compound assignment needs scalar operands"}
		}
		res, err := applyBinaryID(int(i.b), binOpNames[i.b], *ref, rv, fc.pos[pc])
		if err != nil {
			return err
		}
		*ref = Int(ref.Type.Base, res.I)
		m.push(*ref)

	case opIncRef:
		ref := m.popRef()
		if !ref.IsScalar() {
			return &RuntimeError{Pos: fc.pos[pc], Msg: "operand of ++/-- must be scalar"}
		}
		return m.incCommon(ref, i.a)

	case opData:
		v, err := in.Env.DataRef(fc.names[i.a])
		if err != nil {
			return &RuntimeError{Pos: fc.pos[pc], Msg: err.Error()}
		}
		m.push(load(*v, i.c))

	case opAttr:
		v, err := in.Env.AttrRef(fc.names[i.a])
		if err != nil {
			return &RuntimeError{Pos: fc.pos[pc], Msg: err.Error()}
		}
		m.push(load(*v, i.c))

	case opIORead:
		idx := m.index(i.c)
		v, err := in.Env.IORead(fc.names[i.a], idx)
		if err != nil {
			return &RuntimeError{Pos: fc.pos[pc], Msg: err.Error()}
		}
		m.push(v)

	case opIOWrite:
		v := m.pop()
		idx := m.index(i.c)
		if err := in.Env.IOWrite(fc.names[i.a], idx, v); err != nil {
			return &RuntimeError{Pos: fc.pos[pc], Msg: err.Error()}
		}
		m.push(v)

	case opScalarize:
		if v := m.stack[len(m.stack)-1]; !v.IsScalar() {
			return &RuntimeError{Pos: fc.pos[pc], Msg: fmt.Sprintf("expected scalar, got %s", v.Type)}
		}

	case opNeg:
		v := m.pop()
		if !v.IsScalar() {
			return &RuntimeError{Pos: fc.pos[pc], Msg: fmt.Sprintf("unary - on non-scalar %s", v.Type)}
		}
		m.push(Int(promoteBase(v.Type.Base, I32), -v.I))

	case opBitNot:
		v := m.pop()
		if !v.IsScalar() {
			return &RuntimeError{Pos: fc.pos[pc], Msg: fmt.Sprintf("unary ~ on non-scalar %s", v.Type)}
		}
		m.push(Int(promoteBase(v.Type.Base, I32), ^v.I))

	case opNot:
		v := m.pop()
		if !v.IsScalar() {
			return &RuntimeError{Pos: fc.pos[pc], Msg: fmt.Sprintf("unary ! on non-scalar %s", v.Type)}
		}
		m.push(Int(Bool, b2i(!v.Truth())))

	case opSwitchCond:
		v := m.pop()
		if !v.IsScalar() {
			return &RuntimeError{Pos: fc.pos[pc], Msg: "switch condition must be scalar"}
		}
		fr.slots[i.a] = v

	case opCallUser:
		n := int(i.b)
		args := m.stack[len(m.stack)-n:]
		ret, err := in.vmCall(m.code, m.code.flist[i.a], args, fc.pos[pc])
		if err != nil {
			return err
		}
		m.stack = m.stack[:len(m.stack)-n]
		m.push(ret)

	case opBuiltin:
		n := int(i.b)
		args := m.stack[len(m.stack)-n:]
		v, err := callBuiltin(int(i.a), args, n, fc.pos[pc])
		if err != nil {
			return err
		}
		m.stack = m.stack[:len(m.stack)-n]
		m.push(v)

	case opIntrinsic:
		n := int(i.b)
		name := fc.names[i.a]
		// The arguments are passed in place on the operand stack.
		args := m.stack[len(m.stack)-n:]
		if in.Env != nil {
			v, handled, err := in.Env.Intrinsic(name, args)
			if err != nil {
				return &RuntimeError{Pos: fc.pos[pc], Msg: err.Error()}
			}
			if handled {
				m.stack = m.stack[:len(m.stack)-n]
				m.push(v)
				return nil
			}
		}
		return &RuntimeError{Pos: fc.pos[pc], Msg: fmt.Sprintf("unknown function %q", name)}

	default:
		return &RuntimeError{Pos: fc.pos[pc], Msg: fmt.Sprintf("filterc vm: bad opcode %d", i.op)}
	}
	return nil
}

// index pops an index operand from the stack its flag names.
func (m *vm) index(flag int32) int64 {
	if flag == intIndex {
		return m.ipop()
	}
	return m.pop().I
}

// load pushes a slot or lvalue's value: aggregates are cloned unless
// the compiler marked the load as borrowing (c&loadBorrow), which it
// does when the consumer copies the value before anything can change it.
func load(v Value, c int32) Value {
	if v.Elems != nil && c&loadBorrow == 0 {
		return v.Clone()
	}
	return v
}

// storeInto assigns v to *dst with C semantics: scalars convert to dst's
// type; aggregates, after the compatibility check, are copied into dst's
// own element storage, so v may borrow from anywhere.
func storeInto(dst *Value, v Value, at Pos) error {
	nv, err := convertValue(dst.Type, v, at)
	if err != nil {
		return err
	}
	nv.CloneInto(dst)
	return nil
}

// zeroInto stores the zero value of t in *dst, reusing dst's element
// storage when its capacity suffices: Zero without the allocation.
func zeroInto(dst *Value, t *Type) {
	var n int
	switch t.Kind {
	case KArray:
		n = t.Len
	case KStruct:
		n = len(t.Fields)
	default:
		*dst = Value{Type: t}
		return
	}
	elems := dst.Elems
	if elems == nil || cap(elems) < n {
		elems = make([]Value, n)
	}
	*dst = Value{Type: t, Elems: elems[:n]}
	for k := range dst.Elems {
		et := t.Elem
		if t.Kind == KStruct {
			et = t.Fields[k].Type
		}
		zeroInto(&dst.Elems[k], et)
	}
}

// builtinInt is callBuiltin on typed arguments of known arity; min and
// max promote their two argument bases ab and bb.
func builtinInt(id int32, ab, bb BaseType, args []int64) int64 {
	switch id {
	case builtinMin, builtinMax:
		x := args[1]
		if (id == builtinMin) == (args[0] < args[1]) {
			x = args[0]
		}
		return truncate(promoteBase(ab, bb), x)
	case builtinAbs:
		v := args[0]
		if v < 0 {
			v = -v
		}
		return truncate(I32, v)
	default: // builtinClamp
		return truncate(I32, min(max(args[0], args[1]), args[2]))
	}
}

// callBuiltin checks a builtin's arguments on the value stack and
// applies builtinInt; the walker calls it too.
func callBuiltin(id int, args []Value, n int, at Pos) (Value, error) {
	want := [...]int{builtinMin: 2, builtinMax: 2, builtinAbs: 1, builtinClamp: 3}[id]
	ok := n == want
	var x [3]int64
	for k := 0; ok && k < n; k++ {
		ok = args[k].IsScalar()
		x[k] = args[k].I
	}
	if !ok {
		msg := [...]string{builtinMin: "min expects two scalars", builtinMax: "max expects two scalars",
			builtinAbs: "abs expects one scalar", builtinClamp: "clamp expects three scalars"}[id]
		return Value{}, &RuntimeError{Pos: at, Msg: msg}
	}
	res, ab, bb := I32, args[0].Type.Base, I32
	if want == 2 {
		bb = args[1].Type.Base
		res = promoteBase(ab, bb)
	}
	return Value{Type: &scalarTypes[res], I: builtinInt(int32(id), ab, bb, x[:n])}, nil
}
