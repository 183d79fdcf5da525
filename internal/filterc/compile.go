package filterc

import "fmt"

// One-pass bytecode compiler. Identifiers are resolved to frame slots at
// compile time (liveness flags preserve the walker's scope semantics for
// conditional declarations), constants are folded when doing so cannot
// change observable behaviour, and jump chains are threaded. Statically
// detectable errors (undefined variables, redeclarations, io misuse) are
// compiled to opErr instructions so they are raised only if and when the
// faulty statement actually executes — exactly like the tree-walker.
//
// Every expression whose scalar type is known at compile time (see
// ibase) compiles to typed instructions on the int stack. Scalar locals
// and parameters are typed slots; the values whose type only the run
// time knows (pedf accessors, io reads, user calls, aggregate elements)
// stay on the value stack and enter a typed slot through opIConv.

// Compile translates a parsed program to bytecode. Use it directly only
// for benchmarks and tests; execution compiles each program once, on
// first use.
func Compile(prog *Program) *Code {
	compileTotal.Add(1)
	code := &Code{prog: prog, funcs: make(map[string]*funcCode, len(prog.Order))}
	idx := make(map[string]int32, len(prog.Order))
	for i, name := range prog.Order {
		fc := &funcCode{fn: prog.Funcs[name]}
		code.funcs[name] = fc
		code.flist = append(code.flist, fc)
		idx[name] = int32(i)
	}
	for _, name := range prog.Order {
		c := &compiler{prog: prog, out: code, fc: code.funcs[name], funcIdx: idx,
			constIdx: make(map[constKey]int32),
			typeIdx:  make(map[*Type]int32),
			nameIdx:  make(map[string]int32)}
		c.compileFunc()
	}
	return code
}

type constKey struct {
	t *Type
	i int64
	s string
}

type cscope struct {
	id    int
	names map[string]int32
}

// loopCtx tracks the jump-patching and scope-unwind state of an
// enclosing loop or switch while its body is being compiled.
type loopCtx struct {
	isLoop      bool // false: switch (break only)
	breakKillTo int  // break kills compile scopes[breakKillTo:]
	contKillTo  int  // continue kills compile scopes[contKillTo:]
	breakPCs    []int
	contPCs     []int
}

type compiler struct {
	prog    *Program
	out     *Code
	fc      *funcCode
	funcIdx map[string]int32

	scopes []cscope
	loops  []loopCtx

	constIdx map[constKey]int32
	typeIdx  map[*Type]int32
	nameIdx  map[string]int32
}

func (c *compiler) pc() int { return len(c.fc.code) }

func (c *compiler) emit(op opcode, a, b int32, pos Pos) int {
	return c.emitC(op, a, b, 0, pos)
}

func (c *compiler) emitC(op opcode, a, b, cc int32, pos Pos) int {
	pc := len(c.fc.code)
	c.fc.code = append(c.fc.code, ins{op: op, a: a, b: b, c: cc})
	c.fc.pos = append(c.fc.pos, pos)
	return pc
}

// patchA points the a-operand of the jump at pc to the current position.
func (c *compiler) patchA(pc int) { c.fc.code[pc].a = int32(len(c.fc.code)) }

// borrow marks the load that produced the value just compiled, if the
// last instruction is one, as borrowing (loadBorrow). Callers use it
// where the consumer copies or only reads the value next.
func (c *compiler) borrow() {
	last := &c.fc.code[len(c.fc.code)-1]
	switch last.op {
	case opLoadSlot, opLoadRef, opData, opAttr:
		last.c |= loadBorrow
	}
}

func (c *compiler) emitErr(pos Pos, msg string) {
	c.emit(opErr, c.name(msg), 0, pos)
}

func (c *compiler) constant(v Value) int32 {
	k := constKey{t: v.Type, i: v.I, s: v.S}
	if v.Elems != nil {
		// Aggregates are never interned (folding only produces scalars).
		id := int32(len(c.fc.consts))
		c.fc.consts = append(c.fc.consts, v)
		return id
	}
	if id, ok := c.constIdx[k]; ok {
		return id
	}
	id := int32(len(c.fc.consts))
	c.fc.consts = append(c.fc.consts, v)
	c.constIdx[k] = id
	return id
}

func (c *compiler) typeRef(t *Type) int32 {
	if id, ok := c.typeIdx[t]; ok {
		return id
	}
	id := int32(len(c.fc.types))
	c.fc.types = append(c.fc.types, t)
	c.typeIdx[t] = id
	return id
}

func (c *compiler) name(s string) int32 {
	if id, ok := c.nameIdx[s]; ok {
		return id
	}
	id := int32(len(c.fc.names))
	c.fc.names = append(c.fc.names, s)
	c.nameIdx[s] = id
	return id
}

func (c *compiler) openScope() int {
	id := len(c.fc.scopeSlots)
	c.fc.scopeSlots = append(c.fc.scopeSlots, nil)
	c.scopes = append(c.scopes, cscope{id: id, names: make(map[string]int32)})
	return id
}

func (c *compiler) closeScope() { c.scopes = c.scopes[:len(c.scopes)-1] }

// killScope emits the scope-exit liveness clear (skipped for scopes that
// never declared anything).
func (c *compiler) killScope(id int, pos Pos) {
	if len(c.fc.scopeSlots[id]) > 0 {
		c.emit(opKill, int32(id), 0, pos)
	}
}

// emitKills unwinds compile scopes[from:] the way the walker's deferred
// popScope calls do when break/continue propagate outward.
func (c *compiler) emitKills(from int, pos Pos) {
	for i := len(c.scopes) - 1; i >= from; i-- {
		c.killScope(c.scopes[i].id, pos)
	}
}

// newSlot allocates a slot owned by the innermost scope; base is its
// typed scalar base, or dynBase for a slot that holds a Value.
func (c *compiler) newSlot(name string, base BaseType) int32 {
	slot := int32(c.fc.nslots)
	c.fc.nslots++
	c.fc.slotNames = append(c.fc.slotNames, name)
	c.fc.slotBase = append(c.fc.slotBase, base)
	sc := &c.scopes[len(c.scopes)-1]
	sc.names[name] = slot
	scID := sc.id
	c.fc.scopeSlots[scID] = append(c.fc.scopeSlots[scID], slot)
	return slot
}

// tempSlot allocates an unnamed compiler temporary that never appears in
// Locals, is never killed, and cannot be looked up.
func (c *compiler) tempSlot() int32 {
	slot := int32(c.fc.nslots)
	c.fc.nslots++
	c.fc.slotNames = append(c.fc.slotNames, "")
	c.fc.slotBase = append(c.fc.slotBase, dynBase)
	return slot
}

// declBase returns the typed scalar base a variable of type t gets, or
// dynBase when it holds a Value (aggregates, void).
func declBase(t *Type) BaseType {
	if t.Kind == KScalar && t.Base >= U8 && t.Base <= I32 {
		return t.Base
	}
	return dynBase
}

// typedSlot returns the base of a typed slot.
func (c *compiler) typedSlot(slot int32) (BaseType, bool) {
	b := c.fc.slotBase[slot]
	return b, b != dynBase
}

// typedTarget returns the base of an assignment or ++/-- target that is
// a typed slot.
func (c *compiler) typedTarget(e Expr) (BaseType, bool) {
	if id, ok := e.(*Ident); ok {
		if slot, ok := c.resolve(id.Name); ok {
			return c.typedSlot(slot)
		}
	}
	return 0, false
}

// resolve finds the slot a name is lexically bound to, innermost first.
func (c *compiler) resolve(name string) (int32, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i].names[name]; ok {
			return s, true
		}
	}
	return 0, false
}

func (c *compiler) compileFunc() {
	fn := c.fc.fn
	c.openScope() // parameter scope (scope 0, like the walker's call())
	for _, p := range fn.Params {
		// Duplicate parameter names are diagnosed by vmCall before the
		// body runs; allocate a slot per parameter position regardless.
		slot := int32(c.fc.nslots)
		c.fc.nslots++
		c.fc.slotNames = append(c.fc.slotNames, p.Name)
		c.fc.slotBase = append(c.fc.slotBase, declBase(p.Type))
		c.fc.scopeSlots[0] = append(c.fc.scopeSlots[0], slot)
		c.scopes[0].names[p.Name] = slot
	}
	c.block(fn.Body)
	c.emit(opRetVoid, 0, 0, fn.Pos)
	c.closeScope()
	c.peephole()
	c.thread()
}

// peephole fuses adjacent instruction patterns into superinstructions
// to cut dispatch and operand-stack traffic on the hot path. A fusion is
// applied only when no interior instruction is a jump target and (for
// fusions that can raise errors) every constituent instruction carries
// the same source position, so error positions, OnStmt positions and the
// line table are byte-identical to the unfused code.
func (c *compiler) peephole() {
	code, pos := c.fc.code, c.fc.pos
	n := len(code)
	target := make([]bool, n+1)
	for _, in := range code {
		if t, ok := jumpTarget(in); ok {
			target[t] = true
		}
	}
	out := make([]ins, 0, n)
	outPos := make([]Pos, 0, n)
	remap := make([]int32, n+1)
	fuse := func(i, width int, f ins) {
		for k := 0; k < width; k++ {
			remap[i+k] = int32(len(out))
		}
		out = append(out, f)
		outPos = append(outPos, pos[i])
	}
	// plain reports whether code[i:i+width] can fuse: control enters
	// only at its first instruction and every instruction shares one
	// source position.
	plain := func(i, width int) bool {
		if i+width > n {
			return false
		}
		for k := 1; k < width; k++ {
			if target[i+k] || pos[i+k] != pos[i] {
				return false
			}
		}
		return true
	}
	isOperand := func(in ins) bool { return in.op == opILoad || in.op == opIConst }
	// binC packs a typed binary's operator and operand bases.
	binC := func(bin ins) int32 { return bin.a | bin.b<<8 | bin.c<<16 }
	i := 0
	for i < n {
		remap[i] = int32(len(out))
		cur := code[i]
		switch {
		// (checkslot, i.inc[, pop/i.pop]) on the same slot → one
		// increment that checks liveness itself (c bit 2) and, with the
		// pop, discards the result (c bit 1).
		case cur.op == opCheckSlot && plain(i, 2) &&
			code[i+1].op == opIInc && code[i+1].a == cur.a:
			f := code[i+1]
			f.c = 2
			if plain(i, 3) && (code[i+2].op == opPop || code[i+2].op == opIPop) {
				f.c = 3
				fuse(i, 3, f)
				i += 3
				continue
			}
			fuse(i, 2, f)
			i += 2
			continue
		// (checkslot, load) on the same slot: the load re-checks
		// liveness at an equal position, so the check is redundant.
		case cur.op == opCheckSlot && plain(i, 2) &&
			(code[i+1].op == opLoadSlot || code[i+1].op == opILoad) && code[i+1].a == cur.a:
			i++
			continue
		// (i.load, i.load/i.const, compare, i.jumpfalse) → one fused
		// compare-and-branch: the shape of every loop condition.
		// The branch raises no error, so its position may differ.
		case cur.op == opILoad && plain(i, 3) && i+3 < n && !target[i+3] && isOperand(code[i+1]) &&
			code[i+2].op == opIBin && code[i+2].a >= bEq && code[i+2].a <= bGe &&
			code[i+3].op == opIJumpFalse:
			// The branch target stays an original pc here; the remap
			// sweep below rewrites it along with the plain jumps.
			cmp := code[i+2]
			c3 := cmp.a | code[i+3].a<<5
			if promoteBase(BaseType(cmp.b), BaseType(cmp.c)) == U32 {
				c3 |= 16
			}
			op := opIJFCmpSS
			if code[i+1].op == opIConst {
				op = opIJFCmpSC
			}
			fuse(i, 4, ins{op: op, a: cur.a, b: code[i+1].a, c: c3})
			i += 4
			continue
		// (i.load, i.load/i.const, i.bin) → one fused binary. The two
		// pushes directly preceding a binary are exactly its operands.
		case cur.op == opILoad && plain(i, 3) && isOperand(code[i+1]) && code[i+2].op == opIBin:
			op := opIBinSS
			if code[i+1].op == opIConst {
				op = opIBinSC
			}
			fuse(i, 3, ins{op: op, a: cur.a, b: code[i+1].a, c: binC(code[i+2])})
			i += 3
			continue
		// (i.load/i.const, i.bin) with the left operand already on the
		// int stack → fused right-operand binary.
		case isOperand(cur) && plain(i, 2) && code[i+1].op == opIBin:
			op := opIBinTS
			if cur.op == opIConst {
				op = opIBinTC
			}
			fuse(i, 2, ins{op: op, a: cur.a, c: binC(code[i+1])})
			i += 2
			continue
		// (const, binary): a dynamic left operand against a constant.
		case cur.op == opConst && plain(i, 2) && code[i+1].op == opBinary && code[i+1].a != bBad:
			fuse(i, 2, ins{op: opBinTC, a: cur.a, c: code[i+1].a})
			i += 2
			continue
		// Store/inc whose pushed value is immediately discarded
		// (expression statements): flag the op to skip the push.
		case i+1 < n && !target[i+1] && (code[i+1].op == opPop || code[i+1].op == opIPop):
			switch cur.op {
			case opStoreSlot, opIStore, opIComp, opICompV, opIInc:
				cur.c = 1
				fuse(i, 2, cur)
				i += 2
				continue
			}
		}
		out = append(out, cur)
		outPos = append(outPos, pos[i])
		i++
	}
	remap[n] = int32(len(out))
	for idx := range out {
		if t, ok := jumpTarget(out[idx]); ok {
			setJumpTarget(&out[idx], remap[t])
		}
	}
	c.fc.code, c.fc.pos = out, outPos
}

// jumpTarget returns the branch target of a jump instruction.
func jumpTarget(in ins) (int32, bool) {
	switch in.op {
	case opJump, opJumpFalse, opAndSC, opOrSC, opIJumpFalse, opIAndSC, opIOrSC:
		return in.a, true
	case opCaseEq:
		return in.b, true
	case opIJFCmpSS, opIJFCmpSC:
		return in.c >> 5, true
	}
	return 0, false
}

// setJumpTarget points a jump instruction at t.
func setJumpTarget(in *ins, t int32) {
	switch in.op {
	case opCaseEq:
		in.b = t
	case opIJFCmpSS, opIJFCmpSC:
		in.c = in.c&31 | t<<5
	default:
		in.a = t
	}
}

// thread rewrites jumps whose target is another unconditional jump
// (classic jump threading; bounded to guard against degenerate chains).
func (c *compiler) thread() {
	code := c.fc.code
	for pc := range code {
		t, ok := jumpTarget(code[pc])
		if !ok {
			continue
		}
		for hops := 0; hops < len(code); hops++ {
			if int(t) >= len(code) || code[t].op != opJump {
				break
			}
			t = code[t].a
		}
		setJumpTarget(&code[pc], t)
	}
}

// ---- statements ----

func (c *compiler) block(b *BlockStmt) {
	id := c.openScope()
	for _, s := range b.Stmts {
		c.stmt(s)
	}
	c.killScope(id, b.P)
	c.closeScope()
}

func (c *compiler) stmt(s Stmt) {
	switch s := s.(type) {
	case *BlockStmt:
		c.block(s)

	case *DeclStmt:
		c.emit(opStmt, int32(s.P.Line), 0, s.P)
		sc := &c.scopes[len(c.scopes)-1]
		if _, dup := sc.names[s.Name]; dup {
			// The walker evaluates and converts the initializer before
			// the declare fails; preserve that error order.
			if s.Init != nil {
				c.expr(s.Init)
				c.borrow()
				c.emit(opConv, c.typeRef(s.Type), 0, s.P)
			}
			c.emitErr(s.P, fmt.Sprintf("variable %q redeclared in the same scope", s.Name))
			return
		}
		if b := declBase(s.Type); b != dynBase {
			if s.Init != nil {
				c.ivalue(s.Init, b, s.P)
			} else {
				c.emit(opIConst, c.constant(Int(b, 0)), 0, s.P)
			}
			slot := c.newSlot(s.Name, b)
			c.emit(opIDecl, slot, int32(b), s.P)
			return
		}
		if s.Init != nil {
			c.expr(s.Init)
			c.borrow()
			c.emit(opConv, c.typeRef(s.Type), 0, s.P)
		} else {
			c.emit(opZero, c.typeRef(s.Type), 0, s.P)
		}
		slot := c.newSlot(s.Name, dynBase) // after the initializer: `int x = x;` sees the outer x
		c.emit(opDeclSlot, slot, 0, s.P)

	case *ExprStmt:
		c.emit(opStmt, int32(s.P.Line), 0, s.P)
		if _, ok := c.ibase(s.X); ok {
			c.iexpr(s.X)
			c.emit(opIPop, 0, 0, s.P)
			return
		}
		c.expr(s.X)
		c.borrow()
		c.emit(opPop, 0, 0, s.P)

	case *IfStmt:
		c.emit(opStmt, int32(s.P.Line), 0, s.P)
		jf := c.jumpFalse(s.Cond, s.P)
		c.stmt(s.Then)
		if s.Else != nil {
			j := c.emit(opJump, -1, 0, s.P)
			c.patchA(jf)
			c.stmt(s.Else)
			c.patchA(j)
		} else {
			c.patchA(jf)
		}

	case *WhileStmt:
		top := c.pc()
		c.emit(opStmt, int32(s.P.Line), 0, s.P)
		jf := c.jumpFalse(s.Cond, s.P)
		c.loops = append(c.loops, loopCtx{isLoop: true,
			breakKillTo: len(c.scopes), contKillTo: len(c.scopes)})
		c.stmt(s.Body)
		ctx := c.loops[len(c.loops)-1]
		c.loops = c.loops[:len(c.loops)-1]
		c.emit(opJump, int32(top), 0, s.P)
		end := c.pc()
		c.fc.code[jf].a = int32(end)
		for _, pc := range ctx.breakPCs {
			c.fc.code[pc].a = int32(end)
		}
		for _, pc := range ctx.contPCs {
			c.fc.code[pc].a = int32(top)
		}

	case *ForStmt:
		forScope := c.openScope()
		if s.Init != nil {
			c.stmt(s.Init)
		}
		top := c.pc()
		c.emit(opStmt, int32(s.P.Line), 0, s.P)
		jf := -1
		if s.Cond != nil {
			jf = c.jumpFalse(s.Cond, s.P)
		}
		c.loops = append(c.loops, loopCtx{isLoop: true,
			breakKillTo: len(c.scopes), contKillTo: len(c.scopes)})
		c.stmt(s.Body)
		ctx := c.loops[len(c.loops)-1]
		c.loops = c.loops[:len(c.loops)-1]
		post := c.pc()
		if s.Post != nil {
			c.stmt(s.Post) // fires its own opStmt, like the walker's exec(Post)
		}
		c.emit(opJump, int32(top), 0, s.P)
		end := c.pc()
		c.killScope(forScope, s.P)
		if jf >= 0 {
			c.fc.code[jf].a = int32(end)
		}
		for _, pc := range ctx.breakPCs {
			c.fc.code[pc].a = int32(end)
		}
		for _, pc := range ctx.contPCs {
			c.fc.code[pc].a = int32(post)
		}
		c.closeScope()

	case *SwitchStmt:
		c.emit(opStmt, int32(s.P.Line), 0, s.P)
		c.expr(s.Cond)
		tmp := c.tempSlot()
		c.emit(opSwitchCond, tmp, 0, s.P)
		// Dispatch chain: case values are evaluated in source order, in
		// the scope surrounding the switch (the walker scans before it
		// pushes the case-body scope), stopping at the first match.
		type casePatch struct{ caseIdx, pc int }
		var patches []casePatch
		defaultIdx := -1
		for ci, cs := range s.Cases {
			if cs.Vals == nil {
				defaultIdx = ci
				continue
			}
			for _, ve := range cs.Vals {
				c.expr(ve)
				pc := c.emit(opCaseEq, tmp, -1, ve.exprPos())
				patches = append(patches, casePatch{ci, pc})
			}
		}
		noMatch := c.emit(opJump, -1, 0, s.P)
		caseScope := c.openScope()
		c.loops = append(c.loops, loopCtx{isLoop: false, breakKillTo: len(c.scopes)})
		labels := make([]int, len(s.Cases))
		for ci, cs := range s.Cases {
			labels[ci] = c.pc()
			for _, sub := range cs.Stmts {
				c.stmt(sub) // fallthrough: bodies run consecutively
			}
		}
		ctx := c.loops[len(c.loops)-1]
		c.loops = c.loops[:len(c.loops)-1]
		end := c.pc()
		c.killScope(caseScope, s.P)
		for _, p := range patches {
			c.fc.code[p.pc].b = int32(labels[p.caseIdx])
		}
		if defaultIdx >= 0 {
			c.fc.code[noMatch].a = int32(labels[defaultIdx])
		} else {
			c.fc.code[noMatch].a = int32(end)
		}
		for _, pc := range ctx.breakPCs {
			c.fc.code[pc].a = int32(end)
		}
		c.closeScope()

	case *ReturnStmt:
		c.emit(opStmt, int32(s.P.Line), 0, s.P)
		if s.X != nil {
			c.expr(s.X)
			c.borrow()
			c.emit(opRet, 0, 0, s.P)
		} else {
			c.emit(opRetVoid, 0, 0, s.P)
		}

	case *BreakStmt:
		c.emit(opStmt, int32(s.P.Line), 0, s.P)
		if len(c.loops) == 0 {
			// A stray break unwinds to the function exit in the walker
			// (ctrlBreak reaches call(), which returns void).
			c.emit(opRetVoid, 0, 0, s.P)
			return
		}
		ctx := &c.loops[len(c.loops)-1]
		c.emitKills(ctx.breakKillTo, s.P)
		ctx.breakPCs = append(ctx.breakPCs, c.emit(opJump, -1, 0, s.P))

	case *ContinueStmt:
		c.emit(opStmt, int32(s.P.Line), 0, s.P)
		idx := -1
		for i := len(c.loops) - 1; i >= 0; i-- {
			if c.loops[i].isLoop {
				idx = i
				break
			}
		}
		if idx < 0 {
			c.emit(opRetVoid, 0, 0, s.P)
			return
		}
		ctx := &c.loops[idx]
		c.emitKills(ctx.contKillTo, s.P)
		ctx.contPCs = append(ctx.contPCs, c.emit(opJump, -1, 0, s.P))

	default:
		c.emitErr(s.stmtPos(), fmt.Sprintf("unknown statement %T", s))
	}
}

// ---- expressions ----

// expr compiles e onto the value stack. A typed expression compiles to
// typed code and is boxed at the end; a typed local loads as a Value in
// one instruction.
func (c *compiler) expr(e Expr) {
	if v, ok := foldExpr(e); ok {
		c.emit(opConst, c.constant(v), 0, e.exprPos())
		return
	}
	if b, ok := c.ibase(e); ok {
		if id, isIdent := e.(*Ident); isIdent {
			slot, _ := c.resolve(id.Name)
			c.emit(opILoadV, slot, int32(b), id.P)
			return
		}
		c.iexpr(e)
		c.emit(opIBox, int32(b), 0, e.exprPos())
		return
	}
	switch e := e.(type) {
	case *IntLit, *StrLit:
		// Always folded above; kept for exhaustiveness.
		v, _ := foldExpr(e)
		c.emit(opConst, c.constant(v), 0, e.exprPos())

	case *Ident:
		if slot, ok := c.resolve(e.Name); ok {
			c.emit(opLoadSlot, slot, 0, e.P)
			return
		}
		c.emitErr(e.P, fmt.Sprintf("undefined variable %q", e.Name))

	case *PedfRef:
		switch e.Space {
		case PedfData:
			c.emit(opData, c.name(e.Name), 0, e.P)
		case PedfAttr:
			c.emit(opAttr, c.name(e.Name), 0, e.P)
		default:
			c.emitErr(e.P, fmt.Sprintf("io interface %q must be indexed: pedf.io.%s[n]", e.Name, e.Name))
		}

	case *Index:
		if ref, ok := e.X.(*PedfRef); ok && ref.Space == PedfIO {
			flag := c.index(e.I)
			c.emitC(opIORead, c.name(ref.Name), 0, flag, e.P)
			return
		}
		c.lvalue(e)
		c.emit(opLoadRef, 0, 0, e.P)

	case *Member:
		c.lvalue(e)
		c.emit(opLoadRef, 0, 0, e.P)

	case *Unary:
		switch e.Op {
		case "++", "--":
			mode := int32(incPre)
			if e.Op == "--" {
				mode = decPre
			}
			c.incDec(e.X, mode, e.P)
		case "-":
			c.expr(e.X)
			c.emit(opNeg, 0, 0, e.P)
		case "~":
			c.expr(e.X)
			c.emit(opBitNot, 0, 0, e.P)
		case "!":
			c.expr(e.X)
			c.emit(opNot, 0, 0, e.P)
		default:
			c.emitErr(e.P, fmt.Sprintf("unknown unary operator %s", e.Op))
		}

	case *Postfix:
		mode := int32(incPost)
		if e.Op == "--" {
			mode = decPost
		}
		c.incDec(e.X, mode, e.P)

	case *Binary:
		c.binary(e)

	case *Assign:
		c.assign(e)

	case *Cond:
		jf := c.jumpFalse(e.C, e.P)
		c.expr(e.T)
		j := c.emit(opJump, -1, 0, e.P)
		c.patchA(jf)
		c.expr(e.F)
		c.patchA(j)

	case *Call:
		for _, a := range e.Args {
			c.expr(a)
		}
		n := int32(len(e.Args))
		if id, ok := builtinIDs[e.Name]; ok {
			c.emit(opBuiltin, id, n, e.P)
		} else if fi, ok := c.funcIdx[e.Name]; ok {
			if n > 0 {
				c.borrow() // vmCall copies arguments into the callee's slots
			}
			c.emit(opCallUser, fi, n, e.P)
		} else {
			c.emit(opIntrinsic, c.name(e.Name), n, e.P)
		}

	default:
		c.emitErr(e.exprPos(), fmt.Sprintf("unknown expression %T", e))
	}
}

// incDec compiles ++/-- (prefix and postfix) on an lvalue target.
func (c *compiler) incDec(target Expr, mode int32, at Pos) {
	if id, ok := target.(*Ident); ok {
		if slot, ok := c.resolve(id.Name); ok {
			// Typed slots take iincDec; a Value slot holds an
			// aggregate or a void variable, never a number.
			c.emit(opCheckSlot, slot, 0, id.P)
			c.emitErr(at, "operand of ++/-- must be scalar")
			return
		}
		c.emitErr(id.P, fmt.Sprintf("undefined variable %q", id.Name))
		return
	}
	c.lvalue(target)
	c.emit(opIncRef, mode, 0, at)
}

func (c *compiler) binary(e *Binary) {
	if e.Op == "&&" || e.Op == "||" {
		// If the left side folds, the short-circuit decision is static.
		if l, ok := foldExpr(e.L); ok {
			if e.Op == "&&" && !l.Truth() {
				c.emit(opConst, c.constant(Int(Bool, 0)), 0, e.P)
				return
			}
			if e.Op == "||" && l.Truth() {
				c.emit(opConst, c.constant(Int(Bool, 1)), 0, e.P)
				return
			}
			c.expr(e.R)
			c.emit(opTruthBool, 0, 0, e.P)
			return
		}
		c.expr(e.L)
		op := opAndSC
		if e.Op == "||" {
			op = opOrSC
		}
		sc := c.emit(op, -1, 0, e.P)
		c.expr(e.R)
		c.emit(opTruthBool, 0, 0, e.P)
		c.patchA(sc)
		return
	}
	c.expr(e.L)
	c.expr(e.R)
	c.borrow()
	c.emit(opBinary, int32(binOpID(e.Op)), c.name(e.Op), e.P)
}

func (c *compiler) assign(e *Assign) {
	// Producing a token on an output interface.
	if idx, ok := e.L.(*Index); ok {
		if ref, ok := idx.X.(*PedfRef); ok && ref.Space == PedfIO {
			if e.Op != "=" {
				c.emitErr(e.P, "compound assignment is not allowed on io interfaces")
				return
			}
			flag := c.index(idx.I)
			c.expr(e.R)
			c.borrow()
			c.emitC(opIOWrite, c.name(ref.Name), 0, flag, e.P)
			return
		}
	}
	// Slot-direct path for plain identifier targets; the opCheckSlot
	// preserves the walker's lvalue-before-rhs error order.
	if id, ok := e.L.(*Ident); ok {
		slot, ok := c.resolve(id.Name)
		if !ok {
			c.emitErr(id.P, fmt.Sprintf("undefined variable %q", id.Name))
			return
		}
		c.emit(opCheckSlot, slot, 0, id.P)
		c.expr(e.R)
		if e.Op == "=" {
			c.borrow()
			c.emit(opStoreSlot, slot, 0, e.P)
		} else {
			// Typed slots take iassign; compound assignment to a
			// Value slot fails once the operand is evaluated.
			c.emitErr(e.P, "compound assignment needs scalar operands")
		}
		return
	}
	c.lvalue(e.L)
	c.expr(e.R)
	c.borrow()
	if e.Op == "=" {
		c.emit(opStoreRef, 0, 0, e.P)
	} else {
		c.emit(opCompRef, 0, int32(binOpID(e.Op[:len(e.Op)-1])), e.P)
	}
}

// lvalue compiles an assignable expression to a reference on the ref
// stack, mirroring the walker's lvalue() resolution order.
func (c *compiler) lvalue(e Expr) {
	switch e := e.(type) {
	case *Ident:
		if slot, ok := c.resolve(e.Name); ok {
			c.emit(opRefSlot, slot, 0, e.P)
			return
		}
		c.emitErr(e.P, fmt.Sprintf("undefined variable %q", e.Name))

	case *PedfRef:
		switch e.Space {
		case PedfData:
			c.emit(opRefData, c.name(e.Name), 0, e.P)
		case PedfAttr:
			c.emit(opRefAttr, c.name(e.Name), 0, e.P)
		default:
			c.emitErr(e.P, "io interfaces are not plain storage")
		}

	case *Index:
		c.lvalue(e.X)
		// The walker rejects non-array bases before evaluating the index.
		c.emit(opCheckArr, 0, 0, e.P)
		flag := c.index(e.I)
		c.emitC(opRefIndex, 0, 0, flag, e.P)

	case *Member:
		c.lvalue(e.X)
		c.emit(opRefMember, c.name(e.Name), 0, e.P)

	default:
		c.emitErr(e.exprPos(), "expression is not assignable")
	}
}

// ---- typed scalars ----

// ibase reports whether e compiles to typed code, and its base: a
// numeric constant, a typed local or parameter, an assignment or ++/--
// of one, and any operator, conditional or builtin over typed operands.
// The base follows the VM's promotion rules, so it is exactly the base
// the value-stack code would compute at run time.
func (c *compiler) ibase(e Expr) (BaseType, bool) {
	if v, ok := foldExpr(e); ok {
		return v.Type.Base, v.IsScalar()
	}
	switch e := e.(type) {
	case *Ident:
		if slot, ok := c.resolve(e.Name); ok {
			return c.typedSlot(slot)
		}
	case *Unary:
		switch e.Op {
		case "++", "--":
			return c.typedTarget(e.X)
		case "-", "~":
			if b, ok := c.ibase(e.X); ok {
				return promoteBase(b, I32), true
			}
		case "!":
			if _, ok := c.ibase(e.X); ok {
				return Bool, true
			}
		}
	case *Postfix:
		return c.typedTarget(e.X)
	case *Binary:
		if e.Op == "&&" || e.Op == "||" {
			_, okR := c.ibase(e.R)
			_, okL := c.ibase(e.L)
			return Bool, okL && okR
		}
		id := binOpID(e.Op)
		lb, okL := c.ibase(e.L)
		rb, okR := c.ibase(e.R)
		if id != bBad && okL && okR {
			return binResult(id, lb, rb), true
		}
	case *Assign:
		return c.typedTarget(e.L)
	case *Cond:
		tb, okT := c.ibase(e.T)
		fb, okF := c.ibase(e.F)
		return tb, okT && okF && tb == fb
	case *Call:
		var bases [3]BaseType
		for k, a := range e.Args {
			b, ok := c.ibase(a)
			if !ok || k >= len(bases) {
				return 0, false
			}
			bases[k] = b
		}
		switch n := len(e.Args); e.Name {
		case "min", "max":
			return promoteBase(bases[0], bases[1]), n == 2
		case "abs":
			return I32, n == 1
		case "clamp":
			return I32, n == 3
		}
	}
	return 0, false
}

// iexpr compiles a typed expression (ibase ok) onto the int stack and
// returns its base.
func (c *compiler) iexpr(e Expr) BaseType {
	if v, ok := foldExpr(e); ok {
		c.emit(opIConst, c.constant(v), 0, e.exprPos())
		return v.Type.Base
	}
	switch e := e.(type) {
	case *Ident:
		slot, _ := c.resolve(e.Name)
		c.emit(opILoad, slot, 0, e.P)
		return c.fc.slotBase[slot]
	case *Unary:
		switch e.Op {
		case "++":
			return c.iincDec(e.X, incPre, e.P)
		case "--":
			return c.iincDec(e.X, decPre, e.P)
		}
		b := c.iexpr(e.X)
		switch e.Op {
		case "-":
			c.emit(opIUnary, 0, int32(b), e.P)
		case "~":
			c.emit(opIUnary, 1, int32(b), e.P)
		default: // "!"
			c.emit(opIUnary, 2, int32(b), e.P)
			return Bool
		}
		return promoteBase(b, I32)
	case *Postfix:
		if e.Op == "--" {
			return c.iincDec(e.X, decPost, e.P)
		}
		return c.iincDec(e.X, incPost, e.P)
	case *Binary:
		if e.Op == "&&" || e.Op == "||" {
			c.ilogic(e)
			return Bool
		}
		id := binOpID(e.Op)
		lb := c.iexpr(e.L)
		rb := c.iexpr(e.R)
		c.emitC(opIBin, int32(id), int32(lb), int32(rb), e.P)
		return binResult(id, lb, rb)
	case *Assign:
		return c.iassign(e)
	case *Cond:
		jf := c.jumpFalse(e.C, e.P)
		b := c.iexpr(e.T)
		j := c.emit(opJump, -1, 0, e.P)
		c.patchA(jf)
		c.iexpr(e.F)
		c.patchA(j)
		return b
	case *Call:
		var packed int32
		for k, a := range e.Args {
			packed |= int32(c.iexpr(a)) << (8 * k)
		}
		c.emitC(opIBuiltin, builtinIDs[e.Name], int32(len(e.Args)), packed&0xffff, e.P)
		b, _ := c.ibase(e)
		return b
	}
	panic(fmt.Sprintf("filterc: iexpr on untyped %T", e))
}

// ivalue compiles e onto the int stack for a store into base b: typed
// expressions directly, the others through the checked conversion.
func (c *compiler) ivalue(e Expr, b BaseType, pos Pos) {
	if _, ok := c.ibase(e); ok {
		c.iexpr(e)
		return
	}
	c.expr(e)
	c.emit(opIConv, int32(b), 0, pos)
}

// jumpFalse compiles a condition and the branch taken when it is false;
// it returns the branch's pc for patching.
func (c *compiler) jumpFalse(e Expr, pos Pos) int {
	if _, ok := c.ibase(e); ok {
		c.iexpr(e)
		return c.emit(opIJumpFalse, -1, 0, pos)
	}
	c.expr(e)
	return c.emit(opJumpFalse, -1, 0, pos)
}

// index compiles an index operand and returns the flag its consumer
// carries: a typed index stays on the int stack (intIndex), any other
// is checked to be a scalar first.
func (c *compiler) index(e Expr) int32 {
	if _, ok := c.ibase(e); ok {
		c.iexpr(e)
		return intIndex
	}
	c.expr(e)
	c.emit(opScalarize, 0, 0, e.exprPos())
	return 0
}

// ilogic compiles a typed && or ||.
func (c *compiler) ilogic(e *Binary) {
	if _, ok := foldExpr(e.L); ok {
		// The left side did not decide the result (foldExpr would have
		// folded the whole expression): only the right side counts.
		c.iexpr(e.R)
		c.emit(opITruth, 0, 0, e.P)
		return
	}
	c.iexpr(e.L)
	op := opIAndSC
	if e.Op == "||" {
		op = opIOrSC
	}
	sc := c.emit(op, -1, 0, e.P)
	c.iexpr(e.R)
	c.emit(opITruth, 0, 0, e.P)
	c.patchA(sc)
}

// iassign compiles an assignment to a typed slot; the opCheckSlot keeps
// the walker's lvalue-before-rhs error order.
func (c *compiler) iassign(e *Assign) BaseType {
	id := e.L.(*Ident)
	slot, _ := c.resolve(id.Name)
	b := c.fc.slotBase[slot]
	c.emit(opCheckSlot, slot, 0, id.P)
	if e.Op == "=" {
		c.ivalue(e.R, b, e.P)
		c.emit(opIStore, slot, int32(b), e.P)
		return b
	}
	op := int32(binOpID(e.Op[:len(e.Op)-1]))
	if rb, ok := c.ibase(e.R); ok {
		c.iexpr(e.R)
		c.emit(opIComp, slot, op|int32(rb)<<8|int32(b)<<16, e.P)
		return b
	}
	c.expr(e.R)
	c.emit(opICompV, slot, op|int32(b)<<16, e.P)
	return b
}

// iincDec compiles ++/-- on a typed slot.
func (c *compiler) iincDec(target Expr, mode int32, at Pos) BaseType {
	id := target.(*Ident)
	slot, _ := c.resolve(id.Name)
	b := c.fc.slotBase[slot]
	c.emit(opCheckSlot, slot, 0, id.P)
	c.emit(opIInc, slot, mode|int32(b)<<8, at)
	return b
}

// ---- constant folding ----

// foldExpr evaluates e at compile time when that is possible without
// changing observable behaviour: only side-effect-free scalar operations
// that cannot raise a runtime error are folded.
func foldExpr(e Expr) (Value, bool) {
	switch e := e.(type) {
	case *IntLit:
		// Literals default to I32 unless they do not fit, then U32.
		if e.V >= -(1<<31) && e.V < 1<<31 {
			return Int(I32, e.V), true
		}
		return Int(U32, e.V), true

	case *StrLit:
		return StringVal(e.S), true

	case *Unary:
		v, ok := foldExpr(e.X)
		if !ok || !v.IsScalar() {
			return Value{}, false
		}
		switch e.Op {
		case "-":
			return Int(promoteBase(v.Type.Base, I32), -v.I), true
		case "~":
			return Int(promoteBase(v.Type.Base, I32), ^v.I), true
		case "!":
			return Int(Bool, b2i(!v.Truth())), true
		}
		return Value{}, false

	case *Binary:
		if e.Op == "&&" || e.Op == "||" {
			l, ok := foldExpr(e.L)
			if !ok {
				return Value{}, false
			}
			if e.Op == "&&" && !l.Truth() {
				return Int(Bool, 0), true
			}
			if e.Op == "||" && l.Truth() {
				return Int(Bool, 1), true
			}
			r, ok := foldExpr(e.R)
			if !ok {
				return Value{}, false
			}
			return Int(Bool, b2i(r.Truth())), true
		}
		l, okL := foldExpr(e.L)
		r, okR := foldExpr(e.R)
		if !okL || !okR || !l.IsScalar() || !r.IsScalar() {
			return Value{}, false
		}
		v, err := applyBinary(e.Op, l, r, e.P)
		if err != nil {
			return Value{}, false // division by zero etc.: raise at runtime
		}
		return v, true

	case *Cond:
		cv, ok := foldExpr(e.C)
		if !ok {
			return Value{}, false
		}
		if cv.Truth() {
			return foldExpr(e.T)
		}
		return foldExpr(e.F)
	}
	return Value{}, false
}
