package filterc

import "fmt"

// One-pass bytecode compiler. Identifiers are resolved to frame slots at
// compile time (liveness flags preserve the walker's scope semantics for
// conditional declarations), constants are folded when doing so cannot
// change observable behaviour, and jump chains are threaded. Statically
// detectable errors (undefined variables, redeclarations, io misuse) are
// compiled to opErr instructions so they are raised only if and when the
// faulty statement actually executes — exactly like the tree-walker.

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
	pc := len(c.fc.code)
	c.fc.code = append(c.fc.code, ins{op: op, a: a, b: b})
	c.fc.pos = append(c.fc.pos, pos)
	return pc
}

// patchA points the a-operand of the jump at pc to the current position.
func (c *compiler) patchA(pc int) { c.fc.code[pc].a = int32(len(c.fc.code)) }

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

// newSlot allocates a slot owned by the innermost scope.
func (c *compiler) newSlot(name string) int32 {
	slot := int32(c.fc.nslots)
	c.fc.nslots++
	c.fc.slotNames = append(c.fc.slotNames, name)
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
	return slot
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
		switch in.op {
		case opJump, opJumpFalse, opAndSC, opOrSC:
			target[in.a] = true
		case opCaseEq:
			target[in.b] = true
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
	i := 0
	for i < n {
		remap[i] = int32(len(out))
		// (checkslot, incslot[, pop]) on the same slot → one incslot that
		// performs the liveness check itself (c bit 2) and, with the pop,
		// discards the result (c bit 1).
		if i+1 < n && !target[i+1] &&
			code[i].op == opCheckSlot && code[i+1].op == opIncSlot &&
			code[i].a == code[i+1].a && pos[i] == pos[i+1] {
			f := code[i+1]
			f.c = 2
			if i+2 < n && !target[i+2] && code[i+2].op == opPop {
				f.c = 3
				fuse(i, 3, f)
				i += 3
				continue
			}
			fuse(i, 2, f)
			i += 2
			continue
		}
		// (checkslot, loadslot) on the same slot: the load re-checks
		// liveness at an equal position, so the check is redundant.
		if i+1 < n && !target[i+1] &&
			code[i].op == opCheckSlot && code[i+1].op == opLoadSlot &&
			code[i].a == code[i+1].a && pos[i] == pos[i+1] {
			fuse(i, 2, code[i+1])
			i += 2
			continue
		}
		// (load, load/const, compare, jumpfalse) → one fused
		// compare-and-branch: the shape of every loop condition.
		if i+3 < n && !target[i+1] && !target[i+2] && !target[i+3] &&
			code[i+2].op == opBinary && code[i+2].a >= bEq && code[i+2].a <= bGe &&
			code[i+3].op == opJumpFalse &&
			pos[i] == pos[i+1] && pos[i] == pos[i+2] &&
			code[i].op == opLoadSlot {
			// Branch target stays an original pc here; the remap sweep
			// below rewrites it along with the plain jumps.
			c3 := code[i+2].a | code[i+3].a<<5
			if code[i+1].op == opLoadSlot {
				fuse(i, 4, ins{op: opJFCmpSS, a: code[i].a, b: code[i+1].a, c: c3})
				i += 4
				continue
			}
			if code[i+1].op == opConst {
				fuse(i, 4, ins{op: opJFCmpSC, a: code[i].a, b: code[i+1].a, c: c3})
				i += 4
				continue
			}
		}
		// (load, load/const, binary) → one fused binary. The two pushes
		// directly preceding an opBinary are exactly its operands, so the
		// rewrite is sound whenever control cannot enter mid-pattern.
		if i+2 < n && !target[i+1] && !target[i+2] &&
			code[i+2].op == opBinary && code[i+2].a != bBad &&
			pos[i] == pos[i+1] && pos[i] == pos[i+2] {
			id := code[i+2].a
			if code[i].op == opLoadSlot && code[i+1].op == opLoadSlot {
				fuse(i, 3, ins{op: opBinSS, a: code[i].a, b: code[i+1].a, c: id})
				i += 3
				continue
			}
			if code[i].op == opLoadSlot && code[i+1].op == opConst {
				fuse(i, 3, ins{op: opBinSC, a: code[i].a, b: code[i+1].a, c: id})
				i += 3
				continue
			}
		}
		if i+1 < n && !target[i+1] {
			next := code[i+1]
			// (load/const, binary) with the left operand already on the
			// stack → fused right-operand binary.
			if next.op == opBinary && next.a != bBad && pos[i] == pos[i+1] {
				if code[i].op == opLoadSlot {
					fuse(i, 2, ins{op: opBinTS, a: code[i].a, c: next.a})
					i += 2
					continue
				}
				if code[i].op == opConst {
					fuse(i, 2, ins{op: opBinTC, a: code[i].a, c: next.a})
					i += 2
					continue
				}
			}
			// Store/inc whose pushed value is immediately discarded
			// (expression statements): flag the op to skip the push.
			if next.op == opPop {
				switch code[i].op {
				case opStoreSlot, opCompSlot, opIncSlot:
					f := code[i]
					f.c = 1
					fuse(i, 2, f)
					i += 2
					continue
				}
			}
		}
		out = append(out, code[i])
		outPos = append(outPos, pos[i])
		i++
	}
	remap[n] = int32(len(out))
	for idx := range out {
		switch out[idx].op {
		case opJump, opJumpFalse, opAndSC, opOrSC:
			out[idx].a = remap[out[idx].a]
		case opCaseEq:
			out[idx].b = remap[out[idx].b]
		case opJFCmpSS, opJFCmpSC:
			out[idx].c = out[idx].c&31 | remap[out[idx].c>>5]<<5
		}
	}
	c.fc.code, c.fc.pos = out, outPos
}

// thread rewrites jumps whose target is another unconditional jump
// (classic jump threading; bounded to guard against degenerate chains).
func (c *compiler) thread() {
	code := c.fc.code
	follow := func(t int32) int32 {
		for hops := 0; hops < len(code); hops++ {
			if int(t) >= len(code) || code[t].op != opJump {
				break
			}
			t = code[t].a
		}
		return t
	}
	for pc := range code {
		switch code[pc].op {
		case opJump, opJumpFalse, opAndSC, opOrSC:
			code[pc].a = follow(code[pc].a)
		case opCaseEq:
			code[pc].b = follow(code[pc].b)
		case opJFCmpSS, opJFCmpSC:
			code[pc].c = code[pc].c&31 | follow(code[pc].c>>5)<<5
		}
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
				c.emit(opConv, c.typeRef(s.Type), 0, s.P)
			}
			c.emitErr(s.P, fmt.Sprintf("variable %q redeclared in the same scope", s.Name))
			return
		}
		if s.Init != nil {
			c.expr(s.Init)
			c.emit(opConv, c.typeRef(s.Type), 0, s.P)
		} else {
			c.emit(opZero, c.typeRef(s.Type), 0, s.P)
		}
		slot := c.newSlot(s.Name) // after the initializer: `int x = x;` sees the outer x
		c.emit(opDeclSlot, slot, 0, s.P)

	case *ExprStmt:
		c.emit(opStmt, int32(s.P.Line), 0, s.P)
		c.expr(s.X)
		c.emit(opPop, 0, 0, s.P)

	case *IfStmt:
		c.emit(opStmt, int32(s.P.Line), 0, s.P)
		c.expr(s.Cond)
		jf := c.emit(opJumpFalse, -1, 0, s.P)
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
		c.expr(s.Cond)
		jf := c.emit(opJumpFalse, -1, 0, s.P)
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
			c.expr(s.Cond)
			jf = c.emit(opJumpFalse, -1, 0, s.P)
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

func (c *compiler) expr(e Expr) {
	if v, ok := foldExpr(e); ok {
		c.emit(opConst, c.constant(v), 0, e.exprPos())
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
			c.expr(e.I)
			c.emit(opScalarize, 0, 0, e.I.exprPos())
			c.emit(opIORead, c.name(ref.Name), 0, e.P)
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
		c.expr(e.C)
		jf := c.emit(opJumpFalse, -1, 0, e.P)
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
		switch e.Name {
		case "min":
			c.emit(opBuiltin, builtinMin, n, e.P)
		case "max":
			c.emit(opBuiltin, builtinMax, n, e.P)
		case "abs":
			c.emit(opBuiltin, builtinAbs, n, e.P)
		case "clamp":
			c.emit(opBuiltin, builtinClamp, n, e.P)
		default:
			if fi, ok := c.funcIdx[e.Name]; ok {
				c.emit(opCallUser, fi, n, e.P)
			} else {
				c.emit(opIntrinsic, c.name(e.Name), n, e.P)
			}
		}

	default:
		c.emitErr(e.exprPos(), fmt.Sprintf("unknown expression %T", e))
	}
}

// incDec compiles ++/-- (prefix and postfix) on an lvalue target.
func (c *compiler) incDec(target Expr, mode int32, at Pos) {
	if id, ok := target.(*Ident); ok {
		if slot, ok := c.resolve(id.Name); ok {
			c.emit(opCheckSlot, slot, 0, id.P)
			c.emit(opIncSlot, slot, mode, at)
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
			c.expr(idx.I)
			c.emit(opScalarize, 0, 0, idx.I.exprPos())
			c.expr(e.R)
			c.emit(opIOWrite, c.name(ref.Name), 0, e.P)
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
			c.emit(opStoreSlot, slot, 0, e.P)
		} else {
			c.emit(opCompSlot, slot, int32(binOpID(e.Op[:len(e.Op)-1])), e.P)
		}
		return
	}
	c.lvalue(e.L)
	c.expr(e.R)
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
		c.expr(e.I)
		c.emit(opScalarize, 0, 0, e.I.exprPos())
		c.emit(opRefIndex, 0, 0, e.P)

	case *Member:
		c.lvalue(e.X)
		c.emit(opRefMember, c.name(e.Name), 0, e.P)

	default:
		c.emitErr(e.exprPos(), "expression is not assignable")
	}
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
