package absint

import (
	"fmt"

	"dfdbg/internal/filterc"
)

// Analysis limits. The merge-unroll bound is deliberately high so that
// constant-trip-count loops (`for (k = 0; k < 16; ...)`) execute
// concretely; only loops still live after mergeUnroll passes of a loop
// head get widened. Unbounded concrete loops are cut by the step budget.
const (
	defaultBudget = 4_000_000
	mergeUnroll   = 2048
	maxCallDepth  = 24
	cntInf        = int64(1) << 33
)

// cnt is an abstract token count (consumed or produced on one iface
// during the current firing): a plain non-negative interval.
type cnt struct {
	lo, hi int64
	c      *cause
}

func (a cnt) singleton() bool      { return a.lo == a.hi }
func (a cnt) coveredBy(b cnt) bool { return a.lo >= b.lo && a.hi <= b.hi }

func cntJoin(a, b cnt) cnt {
	return cnt{lo: minI(a.lo, b.lo), hi: maxI(a.hi, b.hi), c: pickCause(a.c, b.c)}
}

// gstate is the abstract persistent state shared down the call tree of
// one firing: pedf.data, pedf.attr, and the per-iface io counters.
type gstate struct {
	data   map[string]aval
	attrs  map[string]aval
	reads  map[string]cnt
	writes map[string]cnt
}

func (g *gstate) clone() *gstate {
	n := &gstate{
		data:   make(map[string]aval, len(g.data)),
		attrs:  make(map[string]aval, len(g.attrs)),
		reads:  make(map[string]cnt, len(g.reads)),
		writes: make(map[string]cnt, len(g.writes)),
	}
	for k, v := range g.data {
		n.data[k] = v
	}
	for k, v := range g.attrs {
		n.attrs[k] = v
	}
	for k, v := range g.reads {
		n.reads[k] = v
	}
	for k, v := range g.writes {
		n.writes[k] = v
	}
	return n
}

func (g *gstate) coveredBy(o *gstate) bool {
	for k, v := range g.data {
		if !covered(v, o.data[k]) {
			return false
		}
	}
	for k, v := range g.attrs {
		if !covered(v, o.attrs[k]) {
			return false
		}
	}
	for k, v := range g.reads {
		if !v.coveredBy(o.reads[k]) {
			return false
		}
	}
	for k, v := range g.writes {
		if !v.coveredBy(o.writes[k]) {
			return false
		}
	}
	return true
}

func (g *gstate) widenFrom(o *gstate) *gstate {
	n := g.clone()
	for k, v := range o.data {
		n.data[k] = widen(g.data[k], v)
	}
	for k, v := range o.attrs {
		n.attrs[k] = widen(g.attrs[k], v)
	}
	wc := func(a, b cnt) cnt {
		j := cntJoin(a, b)
		if j.lo < a.lo || j.hi > a.hi {
			return cnt{lo: 0, hi: cntInf, c: j.c}
		}
		return j
	}
	for k, v := range o.reads {
		n.reads[k] = wc(g.reads[k], v)
	}
	for k, v := range o.writes {
		n.writes[k] = wc(g.writes[k], v)
	}
	return n
}

// ref is an abstract lvalue: a storage root plus an access path.
type refKind uint8

const (
	refSlot refKind = iota
	refData
	refAttr
)

type pathEl struct {
	isIdx bool
	idx   aval   // isIdx
	fname string // !isIdx: struct field name
}

type ref struct {
	kind refKind
	slot int32
	name string
	path []pathEl
}

// conf is one abstract machine configuration (a point in the explored
// state space of a single function activation).
type conf struct {
	pc       int
	stack    []aval
	refs     []ref
	slots    []aval
	live     []bool
	g        *gstate
	lastFork *cause // most recent non-singleton branch on this path
}

func (cf *conf) clone() *conf {
	n := &conf{pc: cf.pc, g: cf.g.clone(), lastFork: cf.lastFork}
	n.stack = append([]aval(nil), cf.stack...)
	n.refs = make([]ref, len(cf.refs))
	for i, r := range cf.refs {
		r.path = append([]pathEl(nil), r.path...)
		n.refs[i] = r
	}
	n.slots = append([]aval(nil), cf.slots...)
	n.live = append([]bool(nil), cf.live...)
	return n
}

func (cf *conf) push(v aval) { cf.stack = append(cf.stack, v) }
func (cf *conf) pop() aval {
	v := cf.stack[len(cf.stack)-1]
	cf.stack = cf.stack[:len(cf.stack)-1]
	return v
}
func (cf *conf) pushRef(r ref) { cf.refs = append(cf.refs, r) }
func (cf *conf) popRef() ref {
	r := cf.refs[len(cf.refs)-1]
	cf.refs = cf.refs[:len(cf.refs)-1]
	return r
}

// retState is one possible outcome of a function activation.
type retState struct {
	val      aval
	g        *gstate
	lastFork *cause
}

// engine drives one abstract run (one firing of one entry function).
type engine struct {
	pb     *filterc.ProgramBytecode
	ctx    *Context
	ins    map[string]*filterc.Type
	outs   map[string]*filterc.Type
	steps  int
	budget int
	fail   *cause
	active []string
}

func newEngine(pb *filterc.ProgramBytecode, ctx *Context) *engine {
	e := &engine{
		pb: pb, ctx: ctx, budget: defaultBudget,
		ins:  make(map[string]*filterc.Type),
		outs: make(map[string]*filterc.Type),
	}
	for _, d := range ctx.Ins {
		e.ins[d.Name] = d.Type
	}
	for _, d := range ctx.Outs {
		e.outs[d.Name] = d.Type
	}
	return e
}

// backTargets returns the set of loop heads: targets of backward jumps.
func backTargets(fb *filterc.FuncBytecode) map[int]bool {
	heads := make(map[int]bool)
	for pc, in := range fb.Code {
		t := -1
		switch in.Op {
		case filterc.OpJump, filterc.OpJumpFalse, filterc.OpAndSC, filterc.OpOrSC,
			filterc.OpIJumpFalse, filterc.OpIAndSC, filterc.OpIOrSC:
			t = int(in.A)
		case filterc.OpCaseEq:
			t = int(in.B)
		case filterc.OpIJFCmpSS, filterc.OpIJFCmpSC:
			t = int(in.C >> 5)
		}
		if t >= 0 && t <= pc {
			heads[t] = true
		}
	}
	return heads
}

// confCovered reports whether a's behaviors are admitted by acc
// (same pc, empty expression state, pointwise value coverage).
func confCovered(a, acc *conf) bool {
	if len(a.stack) != 0 || len(a.refs) != 0 {
		return false
	}
	for i := range a.slots {
		if !a.live[i] {
			continue
		}
		if !acc.live[i] || !covered(a.slots[i], acc.slots[i]) {
			return false
		}
	}
	return a.g.coveredBy(acc.g)
}

// confWiden folds a into acc with widening.
func confWiden(acc, a *conf) *conf {
	n := acc.clone()
	for i := range a.slots {
		if !a.live[i] {
			continue
		}
		if !n.live[i] {
			n.live[i] = true
			n.slots[i] = a.slots[i]
			continue
		}
		n.slots[i] = widen(n.slots[i], a.slots[i])
	}
	n.g = acc.g.widenFrom(a.g)
	n.lastFork = pickCause(a.lastFork, acc.lastFork)
	return n
}

type headRec struct {
	n   int
	acc *conf
}

// runFunc abstractly executes one function activation and returns every
// possible (return value, global state) outcome. A nil/empty result
// means every path faults (and contributes no rates).
func (e *engine) runFunc(fb *filterc.FuncBytecode, args []aval, g *gstate, lf *cause) []retState {
	if e.fail != nil {
		return nil
	}
	if len(e.active) >= maxCallDepth {
		e.fail = mkCause(fb.Fn.Pos, "call depth limit exceeded", nil)
		return nil
	}
	for _, n := range e.active {
		if n == fb.Fn.Name {
			e.fail = mkCause(fb.Fn.Pos, fmt.Sprintf("recursive call to %s()", fb.Fn.Name), nil)
			return nil
		}
	}
	if len(args) != len(fb.Fn.Params) {
		return nil
	}
	entry := &conf{pc: 0, slots: make([]aval, fb.NSlots), live: make([]bool, fb.NSlots), g: g, lastFork: lf}
	for i, p := range fb.Fn.Params {
		a := args[i]
		if p.Type != nil && p.Type.Kind == filterc.KScalar {
			ca, ok := convertScalar(p.Type.Base, a)
			if !ok {
				return nil
			}
			a = ca
		} else if a.kind != kAny && (a.kind != kAgg || !filterc.TypesCompatible(p.Type, a.typ)) {
			return nil
		}
		entry.slots[i] = a
		entry.live[i] = true
	}
	e.active = append(e.active, fb.Fn.Name)
	defer func() { e.active = e.active[:len(e.active)-1] }()

	heads := backTargets(fb)
	hr := make(map[int]*headRec)
	var rets []retState
	work := []*conf{entry}

	for len(work) > 0 && e.fail == nil {
		cf := work[len(work)-1]
		work = work[:len(work)-1]
		rets = append(rets, e.runConf(fb, cf, heads, hr, &work)...)
	}

	// Return-value conversion, as vmCall performs after the frame pops.
	ret := fb.Fn.Ret
	if ret != nil && ret.Kind == filterc.KScalar && ret.Base != filterc.Void {
		out := rets[:0]
		for _, rs := range rets {
			if v, ok := convertScalar(ret.Base, rs.val); ok {
				rs.val = v
				out = append(out, rs)
			}
		}
		rets = out
	}
	return rets
}

// runConf executes one configuration until it returns, faults, or is
// merged away; forked successors are appended to work.
func (e *engine) runConf(fb *filterc.FuncBytecode, cf *conf, heads map[int]bool, hr map[int]*headRec, work *[]*conf) []retState {
	var rets []retState
	for e.fail == nil {
		if e.steps >= e.budget {
			e.fail = mkCause(fb.Pos[cf.pc], "abstract interpretation budget exceeded", nil)
			return rets
		}
		e.steps++

		if heads[cf.pc] && len(cf.stack) == 0 && len(cf.refs) == 0 {
			rec := hr[cf.pc]
			if rec == nil {
				rec = &headRec{}
				hr[cf.pc] = rec
			}
			if rec.acc != nil && confCovered(cf, rec.acc) {
				return rets
			}
			rec.n++
			if rec.n > mergeUnroll {
				if rec.acc == nil {
					rec.acc = cf.clone()
				} else {
					rec.acc = confWiden(rec.acc, cf)
				}
				cf = rec.acc.clone()
				cf.pc = rec.acc.pc
			}
		}

		in := fb.Code[cf.pc]
		pos := fb.Pos[cf.pc]
		fork := func(otherPC int, fc *cause) {
			n := cf.clone()
			n.pc = otherPC
			n.lastFork = fc
			cf.lastFork = fc
			*work = append(*work, n)
		}

		switch op := untyped(in); op {
		case filterc.OpStmt, filterc.OpCheckArr:
			// opCheckArr's failure cases are caught at OpRefIndex.

		case filterc.OpConst:
			cf.push(fromValue(fb.Consts[in.A]))

		case filterc.OpIDecl:
			v, ok := convertScalar(filterc.BaseType(in.B), cf.pop())
			if !ok {
				return rets
			}
			cf.slots[in.A] = v
			cf.live[in.A] = true

		case filterc.OpIStore:
			nv, ok := storeConvert(cf.slots[in.A], cf.pop())
			if !ok {
				return rets
			}
			cf.slots[in.A] = nv
			if in.C == 0 {
				cf.push(nv)
			}

		case filterc.OpIComp, filterc.OpICompV:
			rv := cf.pop()
			res, _, must := binOp(int(in.B&0xff), cf.slots[in.A], rv, pos)
			if must {
				return rets
			}
			nv, ok := storeConvert(cf.slots[in.A], res)
			if !ok {
				return rets
			}
			cf.slots[in.A] = nv
			if in.C == 0 {
				cf.push(nv)
			}

		case filterc.OpIInc:
			if !cf.live[in.A] {
				return rets
			}
			mode := in.B & 0xff
			old := cf.slots[in.A]
			nv, ok := addDelta(old, incDelta(mode))
			if !ok {
				return rets
			}
			cf.slots[in.A] = nv
			if in.C&1 == 0 {
				if mode == filterc.IncPost || mode == filterc.DecPost {
					cf.push(old)
				} else {
					cf.push(nv)
				}
			}

		case filterc.OpIConv:
			v, ok := convertScalar(filterc.BaseType(in.A), cf.pop())
			if !ok {
				return rets
			}
			cf.push(v)

		case filterc.OpIBox:
			// The same scalar, moved to the value stack.

		case filterc.OpIPop:
			cf.pop()

		case filterc.OpZero:
			cf.push(fromValue(filterc.Zero(fb.Types[in.A])))

		case filterc.OpLoadSlot:
			if !cf.live[in.A] {
				return rets
			}
			cf.push(cf.slots[in.A])

		case filterc.OpCheckSlot:
			if !cf.live[in.A] {
				return rets
			}

		case filterc.OpDeclSlot:
			cf.slots[in.A] = cf.pop()
			cf.live[in.A] = true

		case filterc.OpStoreSlot:
			rv := cf.pop()
			nv, ok := storeConvert(cf.slots[in.A], rv)
			if !ok {
				return rets
			}
			cf.slots[in.A] = nv
			if in.C == 0 {
				cf.push(nv)
			}

		case filterc.OpConv:
			v, ok := convertTo(fb.Types[in.A], cf.pop())
			if !ok {
				return rets
			}
			cf.push(v)

		case filterc.OpKill:
			for _, s := range fb.ScopeSlots[in.A] {
				cf.live[s] = false
			}

		case filterc.OpErr:
			return rets

		case filterc.OpJump:
			cf.pc = int(in.A)
			continue

		case filterc.OpJumpFalse:
			v := cf.pop()
			mt, mf := v.truth()
			switch {
			case mt && mf:
				fc := mkCause(pos, "branch on a non-constant condition", v.c)
				fork(int(in.A), fc)
			case mf:
				cf.pc = int(in.A)
				continue
			}

		case filterc.OpAndSC:
			v := cf.pop()
			mt, mf := v.truth()
			if mt && mf {
				fc := mkCause(pos, "short-circuit && on a non-constant operand", v.c)
				n := cf.clone()
				n.pc = int(in.A)
				n.lastFork = fc
				n.push(mkSingle(filterc.Bool, 0, v.c))
				cf.lastFork = fc
				*work = append(*work, n)
			} else if mf {
				cf.push(mkSingle(filterc.Bool, 0, v.c))
				cf.pc = int(in.A)
				continue
			}

		case filterc.OpOrSC:
			v := cf.pop()
			mt, mf := v.truth()
			if mt && mf {
				fc := mkCause(pos, "short-circuit || on a non-constant operand", v.c)
				n := cf.clone()
				n.pc = int(in.A)
				n.lastFork = fc
				n.push(mkSingle(filterc.Bool, 1, v.c))
				cf.lastFork = fc
				*work = append(*work, n)
			} else if mt {
				cf.push(mkSingle(filterc.Bool, 1, v.c))
				cf.pc = int(in.A)
				continue
			}

		case filterc.OpTruthBool:
			v := cf.pop()
			mt, mf := v.truth()
			switch {
			case mt && mf:
				cf.push(mkScalar(filterc.Bool, 0, 1, parBoth, v.c))
			case mt:
				cf.push(mkSingle(filterc.Bool, 1, v.c))
			default:
				cf.push(mkSingle(filterc.Bool, 0, v.c))
			}

		case filterc.OpPop:
			cf.pop()

		case filterc.OpSwitchCond:
			v := cf.pop()
			if v.kind != kScalar && v.kind != kAny {
				return rets
			}
			cf.slots[in.A] = v
			cf.live[in.A] = true

		case filterc.OpCaseEq:
			v := cf.pop()
			s := cf.slots[in.A]
			if v.kind == kScalar && s.kind == kScalar && v.singleton() && s.singleton() &&
				s.base != baseMixed {
				if filterc.CaseMatches(s.base, s.lo, v.lo) {
					cf.pc = int(in.B)
					continue
				}
				break
			}
			// Disjoint intervals are unequal unless the label converts
			// to the switch's unsigned type by wrapping a negative value.
			if v.kind == kScalar && s.kind == kScalar && v.lo >= 0 && s.lo >= 0 &&
				(v.hi < s.lo || s.hi < v.lo) {
				break // definitely unequal
			}
			fc := mkCause(pos, "switch on a non-constant value", pickCause(s.c, v.c))
			fork(int(in.B), fc)

		case filterc.OpRet:
			rets = append(rets, retState{val: cf.pop(), g: cf.g, lastFork: cf.lastFork})
			return rets

		case filterc.OpRetVoid:
			rets = append(rets, retState{val: voidV(), g: cf.g, lastFork: cf.lastFork})
			return rets

		case filterc.OpScalarize:
			v := cf.stack[len(cf.stack)-1]
			if v.kind != kScalar && v.kind != kAny {
				return rets
			}

		case filterc.OpNeg, filterc.OpBitNot:
			v := cf.pop()
			if v.kind == kAny {
				cf.push(scalarTop(baseMixed, v.c))
				break
			}
			if v.kind != kScalar {
				return rets
			}
			nb := filterc.PromoteBase(v.base, filterc.I32)
			if v.base == baseMixed {
				nb = baseMixed
			}
			if op == filterc.OpNeg {
				cf.push(mkScalar(nb, -v.hi, -v.lo, v.par, v.c))
			} else {
				cf.push(mkScalar(nb, ^v.hi, ^v.lo, parMap(v.par, parEven, func(x, _ int64) int64 { return ^x }), v.c))
			}

		case filterc.OpNot:
			v := cf.pop()
			if v.kind != kScalar && v.kind != kAny {
				return rets
			}
			mt, mf := v.truth()
			switch {
			case mt && mf:
				cf.push(mkScalar(filterc.Bool, 0, 1, parBoth, v.c))
			case mt:
				cf.push(mkSingle(filterc.Bool, 0, v.c))
			default:
				cf.push(mkSingle(filterc.Bool, 1, v.c))
			}

		case filterc.OpBinary:
			r := cf.pop()
			l := cf.pop()
			res, _, must := binOp(int(in.A), l, r, pos)
			if must {
				return rets
			}
			cf.push(res)

		case filterc.OpBinTC:
			l := cf.pop()
			res, _, must := binOp(int(in.C), l, fromValue(fb.Consts[in.A]), pos)
			if must {
				return rets
			}
			cf.push(res)

		case filterc.OpIBin, filterc.OpIBinSS, filterc.OpIBinSC, filterc.OpIBinTS, filterc.OpIBinTC:
			// Typed operands are abstract scalars of their static base,
			// so the value-stack transfer applies unchanged.
			var l, r aval
			id := int(in.C & 0xff)
			switch in.Op {
			case filterc.OpIBin:
				r = cf.pop()
				l = cf.pop()
				id = int(in.A)
			case filterc.OpIBinSS:
				if !cf.live[in.A] || !cf.live[in.B] {
					return rets
				}
				l, r = cf.slots[in.A], cf.slots[in.B]
			case filterc.OpIBinSC:
				if !cf.live[in.A] {
					return rets
				}
				l, r = cf.slots[in.A], fromValue(fb.Consts[in.B])
			case filterc.OpIBinTS:
				if !cf.live[in.A] {
					return rets
				}
				l, r = cf.pop(), cf.slots[in.A]
			default: // OpIBinTC
				l, r = cf.pop(), fromValue(fb.Consts[in.A])
			}
			res, _, must := binOp(id, l, r, pos)
			if must {
				return rets
			}
			cf.push(res)

		case filterc.OpIJFCmpSS, filterc.OpIJFCmpSC:
			if !cf.live[in.A] {
				return rets
			}
			var r aval
			if in.Op == filterc.OpIJFCmpSS {
				if !cf.live[in.B] {
					return rets
				}
				r = cf.slots[in.B]
			} else {
				r = fromValue(fb.Consts[in.B])
			}
			res, _, must := binOp(int(in.C&15), cf.slots[in.A], r, pos)
			if must {
				return rets
			}
			mt, mf := res.truth()
			switch {
			case mt && mf:
				fc := mkCause(pos, fmt.Sprintf("branch on a non-constant comparison (%s)",
					filterc.BinOpString(int(in.C&15))), res.c)
				fork(int(in.C>>5), fc)
			case mf:
				cf.pc = int(in.C >> 5)
				continue
			}

		case filterc.OpRefSlot:
			if !cf.live[in.A] {
				return rets
			}
			cf.pushRef(ref{kind: refSlot, slot: in.A})

		case filterc.OpRefData:
			name := fb.Names[in.A]
			if _, ok := cf.g.data[name]; !ok {
				return rets
			}
			cf.pushRef(ref{kind: refData, name: name})

		case filterc.OpRefAttr:
			name := fb.Names[in.A]
			if _, ok := cf.g.attrs[name]; !ok {
				return rets
			}
			cf.pushRef(ref{kind: refAttr, name: name})

		case filterc.OpRefIndex:
			idx := cf.pop()
			if idx.kind != kScalar && idx.kind != kAny {
				return rets
			}
			r := &cf.refs[len(cf.refs)-1]
			cur, ok := e.refLoad(cf, ref{kind: r.kind, slot: r.slot, name: r.name, path: r.path})
			if !ok {
				return rets
			}
			if cur.kind == kAgg {
				n := int64(len(cur.el))
				if idx.kind == kAny {
					idx = mkScalar(filterc.I32, 0, n-1, parBoth, idx.c)
				}
				lo, hi := maxI(idx.lo, 0), minI(idx.hi, n-1)
				if lo > hi {
					return rets // every index out of range
				}
				idx = mkScalar(filterc.I32, lo, hi, idx.par, idx.c)
			} else if cur.kind != kAny {
				return rets // indexing a non-array
			}
			r.path = append(r.path, pathEl{isIdx: true, idx: idx})

		case filterc.OpRefMember:
			r := &cf.refs[len(cf.refs)-1]
			r.path = append(r.path, pathEl{fname: fb.Names[in.A]})

		case filterc.OpLoadRef:
			r := cf.popRef()
			v, ok := e.refLoad(cf, r)
			if !ok {
				return rets
			}
			cf.push(v)

		case filterc.OpStoreRef:
			rv := cf.pop()
			r := cf.popRef()
			old, ok := e.refLoad(cf, r)
			if !ok {
				return rets
			}
			nv, ok := storeConvert(old, rv)
			if !ok {
				return rets
			}
			if !e.refStore(cf, r, nv) {
				return rets
			}
			cf.push(nv)

		case filterc.OpCompRef:
			rv := cf.pop()
			r := cf.popRef()
			old, ok := e.refLoad(cf, r)
			if !ok {
				return rets
			}
			res, _, must := binOp(int(in.B), old, rv, pos)
			if must {
				return rets
			}
			nv, ok := storeConvert(old, res)
			if !ok || !e.refStore(cf, r, nv) {
				return rets
			}
			cf.push(nv)

		case filterc.OpIncRef:
			r := cf.popRef()
			old, ok := e.refLoad(cf, r)
			if !ok {
				return rets
			}
			nv, ok := addDelta(old, incDelta(in.A))
			if !ok || !e.refStore(cf, r, nv) {
				return rets
			}
			if in.A == filterc.IncPost || in.A == filterc.DecPost {
				cf.push(old)
			} else {
				cf.push(nv)
			}

		case filterc.OpData:
			v, ok := cf.g.data[fb.Names[in.A]]
			if !ok {
				return rets
			}
			cf.push(v)

		case filterc.OpAttr:
			v, ok := cf.g.attrs[fb.Names[in.A]]
			if !ok {
				return rets
			}
			cf.push(v)

		case filterc.OpIORead:
			idx := cf.pop()
			name := fb.Names[in.A]
			t, ok := e.ins[name]
			if !ok {
				return rets
			}
			if idx.kind == kAny {
				idx = scalarTop(filterc.I32, idx.c)
			}
			if idx.kind != kScalar || idx.hi < 0 {
				return rets
			}
			lo := maxI(idx.lo, 0)
			var cc *cause
			if lo != idx.hi {
				cc = mkCause(pos, fmt.Sprintf("read index of pedf.io.%s is not constant", name), idx.c)
			}
			old := cf.g.reads[name]
			cf.g.reads[name] = cnt{
				lo: maxI(old.lo, lo+1),
				hi: minI(maxI(old.hi, idx.hi+1), cntInf),
				c:  pickCause(cc, old.c),
			}
			cf.push(topOf(t, mkCause(pos, fmt.Sprintf("token value read from pedf.io.%s", name), nil)))

		case filterc.OpIOWrite:
			v := cf.pop()
			idx := cf.pop()
			name := fb.Names[in.A]
			if _, ok := e.outs[name]; !ok {
				return rets
			}
			if idx.kind == kAny {
				idx = scalarTop(filterc.I32, idx.c)
			}
			if idx.kind != kScalar {
				return rets
			}
			old := cf.g.writes[name]
			// Sequential-write protocol: a successful write requires
			// idx == count, so the continuing interval is their meet.
			lo, hi := maxI(old.lo, idx.lo), minI(old.hi, idx.hi)
			if lo > hi {
				return rets // always non-sequential: the firing faults
			}
			var cc *cause
			if !idx.singleton() {
				cc = mkCause(pos, fmt.Sprintf("write index of pedf.io.%s is not constant", name), idx.c)
			}
			cf.g.writes[name] = cnt{lo: lo + 1, hi: minI(hi+1, cntInf), c: pickCause(cc, old.c)}
			cf.push(v)

		case filterc.OpCallUser:
			n := int(in.B)
			args := append([]aval(nil), cf.stack[len(cf.stack)-n:]...)
			cf.stack = cf.stack[:len(cf.stack)-n]
			outs := e.runFunc(e.pb.Funcs[in.A], args, cf.g, cf.lastFork)
			if e.fail != nil || len(outs) == 0 {
				return rets
			}
			for _, rs := range outs[1:] {
				nc := cf.clone()
				nc.g = rs.g
				nc.lastFork = rs.lastFork
				nc.push(rs.val)
				nc.pc = cf.pc + 1
				*work = append(*work, nc)
			}
			cf.g = outs[0].g
			cf.lastFork = outs[0].lastFork
			cf.push(outs[0].val)

		case filterc.OpBuiltin:
			n := int(in.B)
			args := append([]aval(nil), cf.stack[len(cf.stack)-n:]...)
			cf.stack = cf.stack[:len(cf.stack)-n]
			res, ok := e.builtin(int(in.A), args)
			if !ok {
				return rets
			}
			cf.push(res)

		case filterc.OpIntrinsic:
			n := int(in.B)
			name := fb.Names[in.A]
			args := append([]aval(nil), cf.stack[len(cf.stack)-n:]...)
			cf.stack = cf.stack[:len(cf.stack)-n]
			res, ok := e.intrinsic(name, args, pos)
			if !ok {
				return rets
			}
			cf.push(res)

		default:
			return rets // unknown opcode: treat as a faulting path
		}
		cf.pc++
	}
	return rets
}

// untyped maps a typed instruction to the value-stack instruction with
// the same abstract semantics: a typed scalar is an abstract scalar of
// its static base on the one abstract stack. Typed instructions that
// also convert or store keep their own cases.
func untyped(in filterc.Instr) filterc.Op {
	switch in.Op {
	case filterc.OpIConst:
		return filterc.OpConst
	case filterc.OpILoad, filterc.OpILoadV:
		return filterc.OpLoadSlot
	case filterc.OpIPop:
		return filterc.OpPop
	case filterc.OpIUnary:
		return [...]filterc.Op{filterc.OpNeg, filterc.OpBitNot, filterc.OpNot}[in.A]
	case filterc.OpIJumpFalse:
		return filterc.OpJumpFalse
	case filterc.OpIAndSC:
		return filterc.OpAndSC
	case filterc.OpIOrSC:
		return filterc.OpOrSC
	case filterc.OpITruth:
		return filterc.OpTruthBool
	case filterc.OpIBuiltin:
		return filterc.OpBuiltin
	}
	return in.Op
}

func incDelta(mode int32) int64 {
	if mode == filterc.IncPre || mode == filterc.IncPost {
		return 1
	}
	return -1
}

// addDelta implements ++/-- on an abstract scalar (wraps at the base).
func addDelta(v aval, d int64) (aval, bool) {
	switch v.kind {
	case kAny:
		return v, true
	case kScalar:
	default:
		return aval{}, false
	}
	if v.base == baseMixed {
		return scalarTop(baseMixed, v.c), true
	}
	if v.singleton() {
		return mkSingle(v.base, v.lo+d, v.c), true
	}
	par := parity(0)
	if v.par&parEven != 0 {
		par |= parOdd
	}
	if v.par&parOdd != 0 {
		par |= parEven
	}
	return mkScalar(v.base, v.lo+d, v.hi+d, par, v.c), true
}

// storeConvert coerces rv into the shape of the current storage value.
func storeConvert(old, rv aval) (aval, bool) {
	switch old.kind {
	case kScalar:
		if old.base == baseMixed {
			if rv.kind == kScalar || rv.kind == kAny {
				return anyTop(rv.c), true
			}
			return aval{}, false
		}
		return convertScalar(old.base, rv)
	case kAgg:
		return convertTo(old.typ, rv)
	case kStr:
		if rv.kind == kStr {
			return rv, true
		}
		return aval{}, false
	case kAny:
		return anyTop(rv.c), true
	case kVoid:
		return voidV(), true
	}
	return aval{}, false
}

// refLoad resolves an abstract lvalue to the join of its possible
// current values. ok=false means every resolution faults.
func (e *engine) refLoad(cf *conf, r ref) (aval, bool) {
	var root aval
	switch r.kind {
	case refSlot:
		if !cf.live[r.slot] {
			return aval{}, false
		}
		root = cf.slots[r.slot]
	case refData:
		v, ok := cf.g.data[r.name]
		if !ok {
			return aval{}, false
		}
		root = v
	default:
		v, ok := cf.g.attrs[r.name]
		if !ok {
			return aval{}, false
		}
		root = v
	}
	return walkLoad(root, r.path)
}

func walkLoad(v aval, path []pathEl) (aval, bool) {
	for _, p := range path {
		if v.kind == kAny {
			return anyTop(v.c), true
		}
		if v.kind != kAgg {
			return aval{}, false
		}
		if p.isIdx {
			if v.typ == nil || v.typ.Kind != filterc.KArray {
				return aval{}, false
			}
			lo, hi := maxI(p.idx.lo, 0), minI(p.idx.hi, int64(len(v.el))-1)
			if lo > hi {
				return aval{}, false
			}
			j := v.el[lo]
			for i := lo + 1; i <= hi; i++ {
				j = join(j, v.el[i])
			}
			v = j
		} else {
			if v.typ == nil || v.typ.Kind != filterc.KStruct {
				return aval{}, false
			}
			fi := v.typ.FieldIndex(p.fname)
			if fi < 0 || fi >= len(v.el) {
				return aval{}, false
			}
			v = v.el[fi]
		}
	}
	return v, true
}

// refStore writes nv through an abstract lvalue (strong update when the
// whole path is singleton, weak join otherwise).
func (e *engine) refStore(cf *conf, r ref, nv aval) bool {
	load := func() (aval, bool) {
		switch r.kind {
		case refSlot:
			if !cf.live[r.slot] {
				return aval{}, false
			}
			return cf.slots[r.slot], true
		case refData:
			v, ok := cf.g.data[r.name]
			return v, ok
		default:
			v, ok := cf.g.attrs[r.name]
			return v, ok
		}
	}
	root, ok := load()
	if !ok {
		return false
	}
	updated, ok := walkStore(root, r.path, nv, true)
	if !ok {
		return false
	}
	switch r.kind {
	case refSlot:
		cf.slots[r.slot] = updated
	case refData:
		cf.g.data[r.name] = updated
	default:
		cf.g.attrs[r.name] = updated
	}
	return true
}

func walkStore(v aval, path []pathEl, nv aval, strong bool) (aval, bool) {
	if len(path) == 0 {
		if !strong {
			return join(v, nv), true
		}
		return nv, true
	}
	if v.kind == kAny {
		return v, true // already top: any store is absorbed
	}
	if v.kind != kAgg {
		return aval{}, false
	}
	p := path[0]
	el := append([]aval(nil), v.el...)
	if p.isIdx {
		if v.typ == nil || v.typ.Kind != filterc.KArray {
			return aval{}, false
		}
		lo, hi := maxI(p.idx.lo, 0), minI(p.idx.hi, int64(len(el))-1)
		if lo > hi {
			return aval{}, false
		}
		single := lo == hi
		any := false
		for i := lo; i <= hi; i++ {
			uv, ok := walkStore(el[i], path[1:], nv, strong && single)
			if !ok {
				continue
			}
			any = true
			el[i] = uv
		}
		if !any {
			return aval{}, false
		}
	} else {
		if v.typ == nil || v.typ.Kind != filterc.KStruct {
			return aval{}, false
		}
		fi := v.typ.FieldIndex(p.fname)
		if fi < 0 || fi >= len(el) {
			return aval{}, false
		}
		uv, ok := walkStore(el[fi], path[1:], nv, strong)
		if !ok {
			return aval{}, false
		}
		el[fi] = uv
	}
	return aval{kind: kAgg, typ: v.typ, el: el, c: pickCause(nv.c, v.c)}, true
}

// builtin abstracts min/max/abs/clamp with the VM's promotion rules.
func (e *engine) builtin(id int, args []aval) (aval, bool) {
	vals := make([]filterc.Value, len(args))
	exact := true
	for i, a := range args {
		if a.kind == kAny {
			exact = false
			continue
		}
		if a.kind != kScalar {
			return aval{}, false
		}
		if a.singleton() {
			vals[i] = a.value()
		} else {
			exact = false
		}
	}
	if exact {
		v, ok := filterc.EvalBuiltin(id, vals)
		if !ok {
			return aval{}, false
		}
		return fromValue(v), true
	}
	c := args[0].c
	for _, a := range args[1:] {
		c = pickCause(c, a.c)
	}
	iv := func(i int) (int64, int64) {
		if args[i].kind == kAny || args[i].base == baseMixed {
			return baseRange(baseMixed)
		}
		return args[i].lo, args[i].hi
	}
	switch id {
	case filterc.BuiltinMin, filterc.BuiltinMax:
		if len(args) != 2 {
			return aval{}, false
		}
		base := filterc.I32
		if args[0].kind == kScalar && args[1].kind == kScalar &&
			args[0].base != baseMixed && args[1].base != baseMixed {
			base = filterc.PromoteBase(args[0].base, args[1].base)
		}
		alo, ahi := iv(0)
		blo, bhi := iv(1)
		if id == filterc.BuiltinMin {
			return mkScalar(base, minI(alo, blo), minI(ahi, bhi), parBoth, c), true
		}
		return mkScalar(base, maxI(alo, blo), maxI(ahi, bhi), parBoth, c), true
	case filterc.BuiltinAbs:
		if len(args) != 1 {
			return aval{}, false
		}
		lo, hi := iv(0)
		switch {
		case lo >= 0:
			return mkScalar(filterc.I32, lo, hi, parBoth, c), true
		case hi <= 0:
			return mkScalar(filterc.I32, -hi, -lo, parBoth, c), true
		default:
			return mkScalar(filterc.I32, 0, maxI(-lo, hi), parBoth, c), true
		}
	case filterc.BuiltinClamp:
		if len(args) != 3 {
			return aval{}, false
		}
		xlo, xhi := iv(0)
		llo, lhi := iv(1)
		hlo, hhi := iv(2)
		return mkScalar(filterc.I32, minI(xlo, minI(llo, hlo)), maxI(xhi, maxI(lhi, hhi)), parBoth, c), true
	}
	return aval{}, false
}

// intrinsic abstracts the pedf environment intrinsics.
func (e *engine) intrinsic(name string, args []aval, pos filterc.Pos) (aval, bool) {
	strArg := func() bool {
		return len(args) == 1 && args[0].kind == kStr
	}
	switch name {
	case "ACTOR_START", "ACTOR_SYNC", "ACTOR_FIRE":
		if !e.ctx.Controller || !strArg() {
			return aval{}, false
		}
		return voidV(), true
	case "WAIT_FOR_ACTOR_INIT", "WAIT_FOR_ACTOR_SYNC":
		if !e.ctx.Controller || len(args) != 0 {
			return aval{}, false
		}
		return voidV(), true
	case "STEP_INDEX":
		if len(args) != 0 {
			return aval{}, false
		}
		return scalarTop(filterc.U32, mkCause(pos, "STEP_INDEX() depends on the module step", nil)), true
	case "IO_AVAILABLE":
		if !strArg() {
			return aval{}, false
		}
		return scalarTop(filterc.U32, mkCause(pos, fmt.Sprintf("IO_AVAILABLE(%q) depends on queue occupancy", args[0].s), nil)), true
	}
	return aval{}, false
}
