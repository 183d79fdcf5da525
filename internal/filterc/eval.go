package filterc

import "fmt"

// eval computes an expression's value.
func (in *Interp) eval(fr *Frame, e Expr) (Value, error) {
	switch e := e.(type) {
	case *IntLit:
		// Literals default to I32 unless they do not fit, then U32.
		if e.V >= -(1<<31) && e.V < 1<<31 {
			return Int(I32, e.V), nil
		}
		return Int(U32, e.V), nil

	case *StrLit:
		return StringVal(e.S), nil

	case *Ident:
		if v, ok := fr.Lookup(e.Name); ok {
			return v.Clone(), nil
		}
		return Value{}, &RuntimeError{Pos: e.P, Msg: fmt.Sprintf("undefined variable %q", e.Name)}

	case *PedfRef:
		switch e.Space {
		case PedfData:
			v, err := in.Env.DataRef(e.Name)
			if err != nil {
				return Value{}, &RuntimeError{Pos: e.P, Msg: err.Error()}
			}
			return v.Clone(), nil
		case PedfAttr:
			v, err := in.Env.AttrRef(e.Name)
			if err != nil {
				return Value{}, &RuntimeError{Pos: e.P, Msg: err.Error()}
			}
			return v.Clone(), nil
		default:
			return Value{}, &RuntimeError{Pos: e.P,
				Msg: fmt.Sprintf("io interface %q must be indexed: pedf.io.%s[n]", e.Name, e.Name)}
		}

	case *Index:
		// Reading a token from an input interface.
		if ref, ok := e.X.(*PedfRef); ok && ref.Space == PedfIO {
			idx, err := in.evalScalar(fr, e.I)
			if err != nil {
				return Value{}, err
			}
			v, err := in.Env.IORead(ref.Name, idx)
			if err != nil {
				return Value{}, &RuntimeError{Pos: e.P, Msg: err.Error()}
			}
			return v, nil
		}
		lv, err := in.lvalue(fr, e)
		if err != nil {
			return Value{}, err
		}
		return lv.Clone(), nil

	case *Member:
		lv, err := in.lvalue(fr, e)
		if err != nil {
			return Value{}, err
		}
		return lv.Clone(), nil

	case *Unary:
		return in.evalUnary(fr, e)

	case *Postfix:
		lv, err := in.lvalue(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		if !lv.IsScalar() {
			return Value{}, &RuntimeError{Pos: e.P, Msg: "operand of ++/-- must be scalar"}
		}
		old := *lv
		delta := int64(1)
		if e.Op == "--" {
			delta = -1
		}
		*lv = Int(lv.Type.Base, lv.I+delta)
		return old, nil

	case *Binary:
		return in.evalBinary(fr, e)

	case *Assign:
		return in.evalAssign(fr, e)

	case *Cond:
		c, err := in.eval(fr, e.C)
		if err != nil {
			return Value{}, err
		}
		if c.Truth() {
			return in.eval(fr, e.T)
		}
		return in.eval(fr, e.F)

	case *Call:
		return in.evalCall(fr, e)

	default:
		return Value{}, &RuntimeError{Pos: e.exprPos(), Msg: fmt.Sprintf("unknown expression %T", e)}
	}
}

// evalScalar evaluates e and requires a numeric scalar result.
func (in *Interp) evalScalar(fr *Frame, e Expr) (int64, error) {
	v, err := in.eval(fr, e)
	if err != nil {
		return 0, err
	}
	if !v.IsScalar() {
		return 0, &RuntimeError{Pos: e.exprPos(), Msg: fmt.Sprintf("expected scalar, got %s", v.Type)}
	}
	return v.I, nil
}

// lvalue resolves an assignable expression to storage.
func (in *Interp) lvalue(fr *Frame, e Expr) (*Value, error) {
	switch e := e.(type) {
	case *Ident:
		if v, ok := fr.Lookup(e.Name); ok {
			return v, nil
		}
		return nil, &RuntimeError{Pos: e.P, Msg: fmt.Sprintf("undefined variable %q", e.Name)}

	case *PedfRef:
		switch e.Space {
		case PedfData:
			v, err := in.Env.DataRef(e.Name)
			if err != nil {
				return nil, &RuntimeError{Pos: e.P, Msg: err.Error()}
			}
			return v, nil
		case PedfAttr:
			v, err := in.Env.AttrRef(e.Name)
			if err != nil {
				return nil, &RuntimeError{Pos: e.P, Msg: err.Error()}
			}
			return v, nil
		default:
			return nil, &RuntimeError{Pos: e.P, Msg: "io interfaces are not plain storage"}
		}

	case *Index:
		base, err := in.lvalue(fr, e.X)
		if err != nil {
			return nil, err
		}
		if base.Type == nil || base.Type.Kind != KArray {
			return nil, &RuntimeError{Pos: e.P, Msg: fmt.Sprintf("indexing non-array %s", base.Type)}
		}
		idx, err := in.evalScalar(fr, e.I)
		if err != nil {
			return nil, err
		}
		if idx < 0 || idx >= int64(len(base.Elems)) {
			return nil, &RuntimeError{Pos: e.P,
				Msg: fmt.Sprintf("index %d out of range [0,%d)", idx, len(base.Elems))}
		}
		return &base.Elems[idx], nil

	case *Member:
		base, err := in.lvalue(fr, e.X)
		if err != nil {
			return nil, err
		}
		if base.Type == nil || base.Type.Kind != KStruct {
			return nil, &RuntimeError{Pos: e.P, Msg: fmt.Sprintf("member access on non-struct %s", base.Type)}
		}
		fi := base.Type.FieldIndex(e.Name)
		if fi < 0 {
			return nil, &RuntimeError{Pos: e.P,
				Msg: fmt.Sprintf("struct %s has no field %q", base.Type.Name, e.Name)}
		}
		return &base.Elems[fi], nil

	default:
		return nil, &RuntimeError{Pos: e.exprPos(), Msg: "expression is not assignable"}
	}
}

func (in *Interp) evalUnary(fr *Frame, e *Unary) (Value, error) {
	if e.Op == "++" || e.Op == "--" {
		lv, err := in.lvalue(fr, e.X)
		if err != nil {
			return Value{}, err
		}
		if !lv.IsScalar() {
			return Value{}, &RuntimeError{Pos: e.P, Msg: "operand of ++/-- must be scalar"}
		}
		delta := int64(1)
		if e.Op == "--" {
			delta = -1
		}
		*lv = Int(lv.Type.Base, lv.I+delta)
		return *lv, nil
	}
	v, err := in.eval(fr, e.X)
	if err != nil {
		return Value{}, err
	}
	if !v.IsScalar() {
		return Value{}, &RuntimeError{Pos: e.P, Msg: fmt.Sprintf("unary %s on non-scalar %s", e.Op, v.Type)}
	}
	switch e.Op {
	case "-":
		return Int(promoteBase(v.Type.Base, I32), -v.I), nil
	case "~":
		return Int(promoteBase(v.Type.Base, I32), ^v.I), nil
	case "!":
		if v.Truth() {
			return Int(Bool, 0), nil
		}
		return Int(Bool, 1), nil
	default:
		return Value{}, &RuntimeError{Pos: e.P, Msg: fmt.Sprintf("unknown unary operator %s", e.Op)}
	}
}

// promoteBase implements the simplified usual-arithmetic-conversions of
// the subset: operands promote to at least 32 bits; between equal widths,
// unsigned wins; otherwise the wider type wins.
func promoteBase(a, b BaseType) BaseType {
	pa, pb := promote32(a), promote32(b)
	if pa == pb {
		return pa
	}
	// Both are 32-bit after promotion: U32 vs I32 → U32.
	if pa == U32 || pb == U32 {
		return U32
	}
	return I32
}

func promote32(b BaseType) BaseType {
	switch b {
	case U32:
		return U32
	default:
		return I32
	}
}

func (in *Interp) evalBinary(fr *Frame, e *Binary) (Value, error) {
	// Short-circuit logic first.
	if e.Op == "&&" || e.Op == "||" {
		l, err := in.eval(fr, e.L)
		if err != nil {
			return Value{}, err
		}
		if e.Op == "&&" && !l.Truth() {
			return Int(Bool, 0), nil
		}
		if e.Op == "||" && l.Truth() {
			return Int(Bool, 1), nil
		}
		r, err := in.eval(fr, e.R)
		if err != nil {
			return Value{}, err
		}
		if r.Truth() {
			return Int(Bool, 1), nil
		}
		return Int(Bool, 0), nil
	}
	l, err := in.eval(fr, e.L)
	if err != nil {
		return Value{}, err
	}
	r, err := in.eval(fr, e.R)
	if err != nil {
		return Value{}, err
	}
	if !l.IsScalar() || !r.IsScalar() {
		// Deep equality comparison is allowed for aggregates.
		if e.Op == "==" || e.Op == "!=" {
			eq := l.Equal(r)
			if e.Op == "!=" {
				eq = !eq
			}
			return Int(Bool, b2i(eq)), nil
		}
		return Value{}, &RuntimeError{Pos: e.P,
			Msg: fmt.Sprintf("operator %s needs scalar operands, got %s and %s", e.Op, l.Type, r.Type)}
	}
	return applyBinary(e.Op, l, r, e.P)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// applyBinary performs a scalar binary operation with C-like promotion.
// It delegates to applyBinaryID, the arithmetic kernel shared with the
// bytecode VM, so the two engines cannot diverge on operator semantics.
func applyBinary(op string, l, r Value, at Pos) (Value, error) {
	return applyBinaryID(binOpID(op), op, l, r, at)
}

func applyBinaryID(id int, op string, l, r Value, at Pos) (Value, error) {
	if v, ok := applyBinaryFast(id, l.Type.Base, r.Type.Base, l.I, r.I); ok {
		return v, nil
	}
	return Value{}, applyBinaryErr(id, op, r.I, at)
}

// applyBinaryErr reconstructs the error applyBinaryFast refused to build
// (the fast kernel takes no position, so errors are assembled here).
func applyBinaryErr(id int, op string, b int64, at Pos) error {
	switch id {
	case bDiv:
		return &RuntimeError{Pos: at, Msg: "division by zero"}
	case bMod:
		return &RuntimeError{Pos: at, Msg: "modulo by zero"}
	case bShl, bShr:
		return &RuntimeError{Pos: at, Msg: fmt.Sprintf("shift amount %d out of range", b)}
	default:
		return &RuntimeError{Pos: at, Msg: fmt.Sprintf("unknown operator %s", op)}
	}
}

// applyBinaryFast is the arithmetic kernel on Values' parts: base types
// and raw 64-bit payloads (register arguments, no Value copies). It
// reports ok=false for the error cases, which the caller turns into the
// walker's exact RuntimeError via applyBinaryErr.
func applyBinaryFast(id int, lb, rb BaseType, a, b int64) (Value, bool) {
	x, ok := binInt(int32(id), lb, rb, a, b)
	if !ok {
		return Value{}, false
	}
	return Value{Type: &scalarTypes[binResult(id, lb, rb)], I: x}, true
}

// binResult is the base of a binary operation's result: Bool for a
// comparison, the promoted left base for a shift, the promoted common
// base otherwise.
func binResult(id int, lb, rb BaseType) BaseType {
	switch {
	case id >= bEq && id <= bGe:
		return Bool
	case id == bShl || id == bShr:
		return promote32(lb)
	}
	return promoteBase(lb, rb)
}

// binInt is the arithmetic kernel proper, shared by both engines and by
// the VM's typed instructions: it returns the result payload, already
// truncated to binResult's base.
func binInt(id int32, lb, rb BaseType, a, b int64) (int64, bool) {
	res := promoteBase(lb, rb)
	// For unsigned result types, reinterpret operands as their unsigned
	// 32-bit patterns so comparisons and division behave unsigned.
	ua, ub := uint64(uint32(a)), uint64(uint32(b))
	unsigned := res == U32
	switch id {
	case bAdd:
		return truncate(res, a+b), true
	case bSub:
		return truncate(res, a-b), true
	case bMul:
		return truncate(res, a*b), true
	case bDiv:
		if b == 0 {
			return 0, false
		}
		if unsigned {
			return truncate(res, int64(ua/ub)), true
		}
		return truncate(res, a/b), true
	case bMod:
		if b == 0 {
			return 0, false
		}
		if unsigned {
			return truncate(res, int64(ua%ub)), true
		}
		return truncate(res, a%b), true
	case bAnd:
		return truncate(res, a&b), true
	case bOr:
		return truncate(res, a|b), true
	case bXor:
		return truncate(res, a^b), true
	case bShl:
		if b < 0 || b >= 32 {
			return 0, false
		}
		return truncate(promote32(lb), a<<uint(b)), true
	case bShr:
		if b < 0 || b >= 32 {
			return 0, false
		}
		if lb == U32 || !lb.Signed() {
			return truncate(promote32(lb), int64(uint64(uint32(a))>>uint(b))), true
		}
		return truncate(promote32(lb), a>>uint(b)), true
	case bEq, bNe, bLt, bLe, bGt, bGe:
		return b2i(compareFast(id, lb, rb, a, b)), true
	default:
		return 0, false
	}
}

// compareFast evaluates comparison id (bEq..bGe) of two scalar payloads
// under the usual arithmetic conversions: when either side promotes to
// U32 both compare as unsigned 32-bit patterns, so a u32 0xFFFFFFFF
// equals -1, as in C.
func compareFast(id int32, lb, rb BaseType, a, b int64) bool {
	if promoteBase(lb, rb) == U32 {
		a, b = int64(uint32(a)), int64(uint32(b))
	}
	switch id {
	case bEq:
		return a == b
	case bNe:
		return a != b
	case bLt:
		return a < b
	case bLe:
		return a <= b
	case bGt:
		return a > b
	default: // bGe
		return a >= b
	}
}

// caseMatches reports whether case label v selects a switch whose
// controlling value is cond, of base cb. C converts each label to the
// promoted type of the controlling expression.
func caseMatches(cb BaseType, cond, v int64) bool {
	if promote32(cb) == U32 {
		return uint32(v) == uint32(cond)
	}
	return int64(int32(v)) == cond
}

func (in *Interp) evalAssign(fr *Frame, e *Assign) (Value, error) {
	// Producing a token on an output interface.
	if idx, ok := e.L.(*Index); ok {
		if ref, ok := idx.X.(*PedfRef); ok && ref.Space == PedfIO {
			if e.Op != "=" {
				return Value{}, &RuntimeError{Pos: e.P,
					Msg: "compound assignment is not allowed on io interfaces"}
			}
			i, err := in.evalScalar(fr, idx.I)
			if err != nil {
				return Value{}, err
			}
			v, err := in.eval(fr, e.R)
			if err != nil {
				return Value{}, err
			}
			if err := in.Env.IOWrite(ref.Name, i, v); err != nil {
				return Value{}, &RuntimeError{Pos: e.P, Msg: err.Error()}
			}
			return v, nil
		}
	}
	lv, err := in.lvalue(fr, e.L)
	if err != nil {
		return Value{}, err
	}
	rv, err := in.eval(fr, e.R)
	if err != nil {
		return Value{}, err
	}
	if e.Op == "=" {
		nv, err := convertForAssign(lv.Type, rv, e.P)
		if err != nil {
			return Value{}, err
		}
		*lv = nv
		return nv, nil
	}
	// Compound assignment: lv = lv op rv, truncated back to lv's type.
	if !lv.IsScalar() || !rv.IsScalar() {
		return Value{}, &RuntimeError{Pos: e.P, Msg: "compound assignment needs scalar operands"}
	}
	op := e.Op[:len(e.Op)-1] // strip trailing '='
	res, err := applyBinary(op, *lv, rv, e.P)
	if err != nil {
		return Value{}, err
	}
	*lv = Int(lv.Type.Base, res.I)
	return *lv, nil
}

func (in *Interp) evalCall(fr *Frame, e *Call) (Value, error) {
	args := make([]Value, len(e.Args))
	for i, a := range e.Args {
		v, err := in.eval(fr, a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	// Builtins shared by all programs.
	if id, ok := builtinIDs[e.Name]; ok {
		return callBuiltin(int(id), args, len(args), e.P)
	}
	// User functions in the same program.
	if fn := in.Prog.Func(e.Name); fn != nil {
		return in.call(fn, args, e.P)
	}
	// Environment intrinsics (ACTOR_START, WAIT_FOR_ACTOR_SYNC, ...).
	if in.Env != nil {
		v, handled, err := in.Env.Intrinsic(e.Name, args)
		if err != nil {
			return Value{}, &RuntimeError{Pos: e.P, Msg: err.Error()}
		}
		if handled {
			return v, nil
		}
	}
	return Value{}, &RuntimeError{Pos: e.P, Msg: fmt.Sprintf("unknown function %q", e.Name)}
}
