package analysis

import (
	"fmt"
	"sort"
	"strings"

	"dfdbg/internal/filterc"
)

// Iface describes one declared io interface of the filter under check.
type Iface struct {
	Name string
	Dir  string // "input" or "output"
	Type *filterc.Type
}

// ProgramContext supplies the ADL-side declarations a filterc program is
// checked against. Nil maps/slices mean "unknown": the corresponding
// checks are skipped rather than guessed.
type ProgramContext struct {
	Controller bool
	Ifaces     []Iface                  // nil: io names/directions unknown
	Data       map[string]*filterc.Type // nil: private data unknown
	Attrs      map[string]*filterc.Type // nil: attributes unknown
}

func (c *ProgramContext) iface(name string) (Iface, bool) {
	if c == nil {
		return Iface{}, false
	}
	for _, i := range c.Ifaces {
		if i.Name == name {
			return i, true
		}
	}
	return Iface{}, false
}

// builtins maps the interpreter's global helper functions to their arity.
var builtins = map[string]int{"min": 2, "max": 2, "abs": 1, "clamp": 3}

// intrinsicSig describes one runtime intrinsic of the PEDF environment.
type intrinsicSig struct {
	args           int
	strArg         bool // the single argument must be a string literal
	controllerOnly bool
}

// intrinsics mirrors the filterEnv.Intrinsic dispatch in internal/pedf.
var intrinsics = map[string]intrinsicSig{
	"ACTOR_START":         {args: 1, strArg: true, controllerOnly: true},
	"ACTOR_SYNC":          {args: 1, strArg: true, controllerOnly: true},
	"ACTOR_FIRE":          {args: 1, strArg: true, controllerOnly: true},
	"WAIT_FOR_ACTOR_INIT": {args: 0, controllerOnly: true},
	"WAIT_FOR_ACTOR_SYNC": {args: 0, controllerOnly: true},
	"STEP_INDEX":          {args: 0},
	"IO_AVAILABLE":        {args: 1, strArg: true},
}

// CheckProgram runs every filterc analyzer over a parsed program and
// returns the sorted report.
//
// Codes:
//
//	FC001 (warning) variable may be read before assignment
//	FC002 (warning) variable or parameter never read
//	FC003 (warning) unreachable code
//	FC004 (warning) constant condition
//	FC005 (error)   io interface misuse / type mismatch
//	FC006 (error)   missing return in non-void function
//	FC007 (error)   bad call
func CheckProgram(prog *filterc.Program, ctx *ProgramContext) *Report {
	r := &Report{}
	if prog == nil {
		return r
	}
	c := &checker{prog: prog, ctx: ctx, rep: r, ioWrites: map[string]*ioWriteAcc{}}
	for _, name := range prog.Order {
		c.checkFunc(prog.Funcs[name])
	}
	c.checkWriteGaps()
	r.Sort()
	return r
}

// checker holds program-wide state.
type checker struct {
	prog     *filterc.Program
	ctx      *ProgramContext
	rep      *Report
	ioWrites map[string]*ioWriteAcc
}

// ioWriteAcc collects statically known write indices of one output
// interface, for the sequential-write (gap) check.
type ioWriteAcc struct {
	funcs    map[string]bool
	idxs     map[int64]bool
	nonConst bool
	firstPos filterc.Pos
}

func (c *checker) add(pos filterc.Pos, code string, sev Severity, msg, hint string) {
	c.rep.Add(Diagnostic{Code: code, Sev: sev, File: pos.File, Line: pos.Line, Msg: msg, Hint: hint})
}

// varInfo tracks one local variable or parameter during a function walk.
type varInfo struct {
	name     string
	typ      *filterc.Type
	pos      filterc.Pos
	param    bool
	zeroDecl bool // declared without an initializer
	assigned bool // maybe-assigned on some path
	read     bool
	fc001    bool // already reported once
}

// funcState is the per-function dataflow walker.
type funcState struct {
	c      *checker
	fn     *filterc.FuncDecl
	scopes []map[string]*varInfo
	vars   []*varInfo
}

func (c *checker) checkFunc(fn *filterc.FuncDecl) {
	fs := &funcState{c: c, fn: fn}
	fs.pushScope()
	for _, p := range fn.Params {
		v := &varInfo{name: p.Name, typ: p.Type, pos: fn.Pos, param: true, assigned: true}
		fs.scopes[0][p.Name] = v
		fs.vars = append(fs.vars, v)
	}
	fs.stmt(fn.Body)
	fs.popScope()

	// FC002: declarations and parameters whose value is never read.
	for _, v := range fs.vars {
		if v.read {
			continue
		}
		kind := "variable"
		if v.param {
			kind = "parameter"
		}
		what := "is never used"
		if v.assigned && !v.param {
			what = "is assigned but never read"
		}
		c.add(v.pos, "FC002", Warning,
			fmt.Sprintf("%s %q of %s %s", kind, v.name, fn.Name, what),
			"remove it or use its value")
	}

	// FC006: a non-void function must return on every path.
	if fn.Ret != nil && !(fn.Ret.Kind == filterc.KScalar && fn.Ret.Base == filterc.Void) {
		if !definiteReturn(fn.Body) {
			c.add(fn.Pos, "FC006", Error,
				fmt.Sprintf("function %s returns %s but not on every path", fn.Name, fn.Ret),
				"add a return statement at the end of the function")
		}
	}
}

func (fs *funcState) pushScope() { fs.scopes = append(fs.scopes, map[string]*varInfo{}) }
func (fs *funcState) popScope()  { fs.scopes = fs.scopes[:len(fs.scopes)-1] }

func (fs *funcState) lookup(name string) *varInfo {
	for i := len(fs.scopes) - 1; i >= 0; i-- {
		if v := fs.scopes[i][name]; v != nil {
			return v
		}
	}
	return nil
}

// stmt walks a statement and reports whether control cannot flow past it
// (return/break/continue on every path) — the reachability predicate
// behind FC003.
func (fs *funcState) stmt(s filterc.Stmt) bool {
	switch s := s.(type) {
	case *filterc.BlockStmt:
		fs.pushScope()
		terminated := false
		reported := false
		for _, sub := range s.Stmts {
			if terminated && !reported {
				fs.c.add(posOf(sub), "FC003", Warning, "unreachable code", "remove it or fix the control flow above")
				reported = true
			}
			if fs.stmt(sub) {
				terminated = true
			}
		}
		fs.popScope()
		return terminated
	case *filterc.DeclStmt:
		v := &varInfo{name: s.Name, typ: s.Type, pos: s.P, zeroDecl: s.Init == nil}
		if s.Init != nil {
			fs.expr(s.Init, false)
			v.assigned = true
			fs.checkAssignTypes(s.P, s.Type, s.Init)
		}
		fs.scopes[len(fs.scopes)-1][s.Name] = v
		fs.vars = append(fs.vars, v)
		return false
	case *filterc.ExprStmt:
		fs.expr(s.X, false)
		return false
	case *filterc.IfStmt:
		fs.constCond(s.Cond, "if", false)
		fs.expr(s.Cond, false)
		t1 := fs.stmt(s.Then)
		if s.Else != nil {
			t2 := fs.stmt(s.Else)
			return t1 && t2
		}
		return false
	case *filterc.WhileStmt:
		fs.constCond(s.Cond, "while", true)
		fs.expr(s.Cond, false)
		fs.preSeedLoop(s.Body)
		fs.stmt(s.Body)
		return false
	case *filterc.ForStmt:
		fs.pushScope()
		if s.Init != nil {
			fs.stmt(s.Init)
		}
		if s.Cond != nil {
			fs.constCond(s.Cond, "for", true)
			fs.expr(s.Cond, false)
		}
		fs.preSeedLoop(s.Body)
		if s.Post != nil {
			fs.preSeedLoop(s.Post)
		}
		fs.stmt(s.Body)
		if s.Post != nil {
			fs.stmt(s.Post)
		}
		fs.popScope()
		return false
	case *filterc.SwitchStmt:
		fs.expr(s.Cond, false)
		for _, c := range s.Cases {
			for _, v := range c.Vals {
				fs.expr(v, false)
			}
			terminated, reported := false, false
			for _, sub := range c.Stmts {
				if terminated && !reported {
					fs.c.add(posOf(sub), "FC003", Warning, "unreachable code", "remove it or fix the control flow above")
					reported = true
				}
				if fs.stmt(sub) {
					terminated = true
				}
			}
		}
		return false
	case *filterc.ReturnStmt:
		if s.X != nil {
			fs.expr(s.X, false)
		}
		return true
	case *filterc.BreakStmt, *filterc.ContinueStmt:
		return true
	}
	return false
}

// preSeedLoop marks every in-scope variable assigned anywhere inside a
// loop body as maybe-assigned before the body is walked: a later
// iteration sees assignments from earlier ones, so `while (c) { use(x);
// x = f(); }` must not trip FC001.
func (fs *funcState) preSeedLoop(s filterc.Stmt) {
	names := map[string]bool{}
	collectAssignTargets(s, names)
	for n := range names {
		if v := fs.lookup(n); v != nil {
			v.assigned = true
		}
	}
}

// collectAssignTargets gathers root identifiers assigned anywhere below s.
func collectAssignTargets(s filterc.Stmt, out map[string]bool) {
	var exprTargets func(e filterc.Expr)
	exprTargets = func(e filterc.Expr) {
		switch e := e.(type) {
		case *filterc.Assign:
			if root := rootIdent(e.L); root != "" {
				out[root] = true
			}
			exprTargets(e.R)
		case *filterc.Unary:
			if e.Op == "++" || e.Op == "--" {
				if root := rootIdent(e.X); root != "" {
					out[root] = true
				}
			}
			exprTargets(e.X)
		case *filterc.Postfix:
			if root := rootIdent(e.X); root != "" {
				out[root] = true
			}
			exprTargets(e.X)
		case *filterc.Binary:
			exprTargets(e.L)
			exprTargets(e.R)
		case *filterc.Index:
			exprTargets(e.X)
			exprTargets(e.I)
		case *filterc.Member:
			exprTargets(e.X)
		case *filterc.Call:
			for _, a := range e.Args {
				exprTargets(a)
			}
		case *filterc.Cond:
			exprTargets(e.C)
			exprTargets(e.T)
			exprTargets(e.F)
		}
	}
	switch s := s.(type) {
	case *filterc.BlockStmt:
		for _, sub := range s.Stmts {
			collectAssignTargets(sub, out)
		}
	case *filterc.DeclStmt:
		if s.Init != nil {
			exprTargets(s.Init)
		}
	case *filterc.ExprStmt:
		exprTargets(s.X)
	case *filterc.IfStmt:
		exprTargets(s.Cond)
		collectAssignTargets(s.Then, out)
		if s.Else != nil {
			collectAssignTargets(s.Else, out)
		}
	case *filterc.WhileStmt:
		exprTargets(s.Cond)
		collectAssignTargets(s.Body, out)
	case *filterc.ForStmt:
		if s.Init != nil {
			collectAssignTargets(s.Init, out)
		}
		if s.Cond != nil {
			exprTargets(s.Cond)
		}
		if s.Post != nil {
			collectAssignTargets(s.Post, out)
		}
		collectAssignTargets(s.Body, out)
	case *filterc.SwitchStmt:
		exprTargets(s.Cond)
		for _, c := range s.Cases {
			for _, sub := range c.Stmts {
				collectAssignTargets(sub, out)
			}
		}
	case *filterc.ReturnStmt:
		if s.X != nil {
			exprTargets(s.X)
		}
	}
}

// rootIdent returns the base identifier of an lvalue chain (m.f[i] -> m),
// or "" when the root is not a plain variable.
func rootIdent(e filterc.Expr) string {
	for {
		switch x := e.(type) {
		case *filterc.Ident:
			return x.Name
		case *filterc.Index:
			e = x.X
		case *filterc.Member:
			e = x.X
		default:
			return ""
		}
	}
}

// constCond reports FC004. Loop conditions only flag constant-false:
// `while (1)` / `for (;;)` are idiomatic infinite loops.
func (fs *funcState) constCond(cond filterc.Expr, kw string, loop bool) {
	v, ok := ConstExpr(cond)
	if !ok {
		return
	}
	if loop && v != 0 {
		return
	}
	truth := "false"
	if v != 0 {
		truth = "true"
	}
	fs.c.add(posOf(cond), "FC004", Warning,
		fmt.Sprintf("%s condition is always %s", kw, truth),
		"simplify the condition or remove the dead branch")
}

// expr walks an expression. write marks an lvalue position.
func (fs *funcState) expr(e filterc.Expr, write bool) {
	switch e := e.(type) {
	case *filterc.Ident:
		v := fs.lookup(e.Name)
		if v == nil {
			return // the interpreter auto-creates on assignment; nothing to track
		}
		if write {
			v.assigned = true
			return
		}
		if v.zeroDecl && !v.assigned && !v.fc001 {
			v.fc001 = true
			fs.c.add(e.P, "FC001", Warning,
				fmt.Sprintf("%q may be read before it is assigned (declared without initializer at line %d)", e.Name, v.pos.Line),
				"initialize the declaration or assign before use")
		}
		v.read = true
	case *filterc.IntLit, *filterc.StrLit:
	case *filterc.PedfRef:
		fs.pedfRef(e, write, false)
	case *filterc.Index:
		if ref, ok := e.X.(*filterc.PedfRef); ok && ref.Space == filterc.PedfIO {
			fs.ioAccess(e, ref, write)
			fs.expr(e.I, false)
			return
		}
		fs.expr(e.X, write)
		fs.expr(e.I, false)
	case *filterc.Member:
		fs.expr(e.X, write)
	case *filterc.Unary:
		if e.Op == "++" || e.Op == "--" {
			fs.markAssignTarget(e.X)
		}
		fs.expr(e.X, false)
	case *filterc.Postfix:
		fs.markAssignTarget(e.X)
		fs.expr(e.X, false)
	case *filterc.Binary:
		fs.expr(e.L, false)
		fs.expr(e.R, false)
	case *filterc.Assign:
		fs.expr(e.R, false)
		if e.Op != "=" {
			fs.expr(e.L, false) // compound assignment reads the target
		}
		fs.expr(e.L, true)
		fs.markAssignTarget(e.L)
		if e.Op == "=" {
			fs.checkAssignTypes(e.P, fs.typeOf(e.L), e.R)
		}
	case *filterc.Call:
		fs.call(e)
	case *filterc.Cond:
		fs.constCond(e.C, "conditional", false)
		fs.expr(e.C, false)
		fs.expr(e.T, false)
		fs.expr(e.F, false)
	}
}

// markAssignTarget records that the root variable of an lvalue is
// (maybe-)assigned, without flagging the intermediate reads.
func (fs *funcState) markAssignTarget(e filterc.Expr) {
	if root := rootIdent(e); root != "" {
		if v := fs.lookup(root); v != nil {
			v.assigned = true
		}
	}
}

// pedfRef checks a pedf.<space>.<name> accessor. indexed is true when an
// enclosing Index already validated an io reference.
func (fs *funcState) pedfRef(e *filterc.PedfRef, write, indexed bool) {
	switch e.Space {
	case filterc.PedfIO:
		if !indexed {
			fs.c.add(e.P, "FC005", Error,
				fmt.Sprintf("io interface pedf.io.%s must be indexed (pedf.io.%s[n])", e.Name, e.Name),
				"add a token index")
		}
	case filterc.PedfData:
		if fs.c.ctx != nil && fs.c.ctx.Data != nil {
			if _, ok := fs.c.ctx.Data[e.Name]; !ok {
				fs.c.add(e.P, "FC005", Error,
					fmt.Sprintf("unknown private data pedf.data.%s", e.Name),
					fmt.Sprintf("declared data: %s", strings.Join(sortedKeys(fs.c.ctx.Data), ", ")))
			}
		}
	case filterc.PedfAttr:
		if fs.c.ctx != nil && fs.c.ctx.Attrs != nil {
			if _, ok := fs.c.ctx.Attrs[e.Name]; !ok {
				fs.c.add(e.P, "FC005", Error,
					fmt.Sprintf("unknown attribute pedf.attribute.%s", e.Name),
					fmt.Sprintf("declared attributes: %s", strings.Join(sortedKeys(fs.c.ctx.Attrs), ", ")))
			}
		}
	}
}

// ioAccess checks one indexed io access pedf.io.NAME[idx].
func (fs *funcState) ioAccess(ix *filterc.Index, ref *filterc.PedfRef, write bool) {
	idx, isConst := ConstExpr(ix.I)
	if isConst && idx < 0 {
		fs.c.add(ix.P, "FC005", Error,
			fmt.Sprintf("negative io index pedf.io.%s[%d]", ref.Name, idx),
			"token indices start at 0")
	}
	if fs.c.ctx != nil && fs.c.ctx.Ifaces != nil {
		iface, ok := fs.c.ctx.iface(ref.Name)
		if !ok {
			names := make([]string, 0, len(fs.c.ctx.Ifaces))
			for _, i := range fs.c.ctx.Ifaces {
				names = append(names, i.Name)
			}
			fs.c.add(ref.P, "FC005", Error,
				fmt.Sprintf("unknown io interface pedf.io.%s", ref.Name),
				fmt.Sprintf("declared interfaces: %s", strings.Join(names, ", ")))
			return
		}
		if write && iface.Dir == "input" {
			fs.c.add(ref.P, "FC005", Error,
				fmt.Sprintf("cannot push on input interface pedf.io.%s", ref.Name),
				"only output interfaces accept writes")
		}
		if !write && iface.Dir == "output" {
			fs.c.add(ref.P, "FC005", Error,
				fmt.Sprintf("cannot pop from output interface pedf.io.%s", ref.Name),
				"only input interfaces can be read")
		}
	}
	if write {
		acc := fs.c.ioWrites[ref.Name]
		if acc == nil {
			acc = &ioWriteAcc{funcs: map[string]bool{}, idxs: map[int64]bool{}, firstPos: ix.P}
			fs.c.ioWrites[ref.Name] = acc
		}
		acc.funcs[fs.fn.Name] = true
		if isConst && idx >= 0 {
			acc.idxs[idx] = true
		} else {
			acc.nonConst = true
		}
	}
}

// checkWriteGaps enforces sequential output writes: the runtime requires
// pedf.io.out[0], [1], [2]... in order within one firing, so a set of
// constant write indices with a hole can never execute.
func (c *checker) checkWriteGaps() {
	names := make([]string, 0, len(c.ioWrites))
	for n := range c.ioWrites {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		acc := c.ioWrites[name]
		if acc.nonConst || len(acc.funcs) != 1 || len(acc.idxs) == 0 {
			continue
		}
		var max int64
		for i := range acc.idxs {
			if i > max {
				max = i
			}
		}
		for i := int64(0); i <= max; i++ {
			if !acc.idxs[i] {
				c.add(acc.firstPos, "FC005", Error,
					fmt.Sprintf("pedf.io.%s is written at index %d but never at index %d", name, max, i),
					"output writes must be sequential from index 0 within one firing")
				break
			}
		}
	}
}

// call checks FC007 (and the IO_AVAILABLE interface name).
func (fs *funcState) call(e *filterc.Call) {
	for _, a := range e.Args {
		fs.expr(a, false)
	}
	if want, ok := builtins[e.Name]; ok {
		if len(e.Args) != want {
			fs.c.add(e.P, "FC007", Error,
				fmt.Sprintf("%s expects %d argument(s), got %d", e.Name, want, len(e.Args)), "")
		}
		return
	}
	if fn := fs.c.prog.Func(e.Name); fn != nil {
		if len(e.Args) != len(fn.Params) {
			fs.c.add(e.P, "FC007", Error,
				fmt.Sprintf("%s expects %d argument(s), got %d", e.Name, len(fn.Params), len(e.Args)), "")
		}
		return
	}
	if sig, ok := intrinsics[e.Name]; ok {
		if len(e.Args) != sig.args {
			fs.c.add(e.P, "FC007", Error,
				fmt.Sprintf("intrinsic %s expects %d argument(s), got %d", e.Name, sig.args, len(e.Args)), "")
			return
		}
		if sig.strArg {
			lit, isStr := e.Args[0].(*filterc.StrLit)
			if !isStr {
				fs.c.add(e.P, "FC007", Error,
					fmt.Sprintf("intrinsic %s expects a string literal argument", e.Name), "")
				return
			}
			if e.Name == "IO_AVAILABLE" && fs.c.ctx != nil && fs.c.ctx.Ifaces != nil {
				iface, ok := fs.c.ctx.iface(lit.S)
				if !ok || iface.Dir != "input" {
					fs.c.add(e.P, "FC005", Error,
						fmt.Sprintf("IO_AVAILABLE(%q) does not name an input interface", lit.S),
						"pass the name of a declared input interface")
				}
			}
		}
		if sig.controllerOnly && fs.c.ctx != nil && !fs.c.ctx.Controller {
			fs.c.add(e.P, "FC007", Error,
				fmt.Sprintf("intrinsic %s is only available in controllers", e.Name),
				"move the scheduling call into the module controller")
		}
		return
	}
	if fs.c.ctx != nil {
		fs.c.add(e.P, "FC007", Error,
			fmt.Sprintf("call to unknown function %s", e.Name),
			"define the function or check the spelling")
	}
}

// checkAssignTypes reports FC005 for assignments the runtime is certain
// to reject (mirroring convertForAssign: scalars coerce freely, strings
// only from strings, aggregates must be structurally compatible).
func (fs *funcState) checkAssignTypes(pos filterc.Pos, dst *filterc.Type, rhs filterc.Expr) {
	src := fs.typeOf(rhs)
	if dst == nil || src == nil {
		return
	}
	if assignCompatible(dst, src) {
		return
	}
	fs.c.add(pos, "FC005", Error,
		fmt.Sprintf("cannot assign %s to %s", src, dst),
		"the operand types are incompatible")
}

// assignCompatible mirrors the interpreter's convertForAssign acceptance.
func assignCompatible(dst, src *filterc.Type) bool {
	if dst.Kind == filterc.KScalar {
		if dst.Base == filterc.Str {
			return src.Kind == filterc.KScalar && src.Base == filterc.Str
		}
		return src.Kind == filterc.KScalar && src.Base != filterc.Str && src.Base != filterc.Void
	}
	if src.Kind != dst.Kind {
		return false
	}
	switch dst.Kind {
	case filterc.KArray:
		return dst.Len == src.Len && assignCompatible(dst.Elem, src.Elem)
	case filterc.KStruct:
		return dst.Name == src.Name
	}
	return false
}

// typeOf infers an expression's static type, or nil when unknown. It is
// deliberately best-effort: nil suppresses checks rather than guessing.
func (fs *funcState) typeOf(e filterc.Expr) *filterc.Type {
	switch e := e.(type) {
	case *filterc.IntLit:
		return filterc.Scalar(filterc.I32)
	case *filterc.StrLit:
		return filterc.Scalar(filterc.Str)
	case *filterc.Ident:
		if v := fs.lookup(e.Name); v != nil {
			return v.typ
		}
		return nil
	case *filterc.PedfRef:
		switch e.Space {
		case filterc.PedfData:
			if fs.c.ctx != nil && fs.c.ctx.Data != nil {
				return fs.c.ctx.Data[e.Name]
			}
		case filterc.PedfAttr:
			if fs.c.ctx != nil && fs.c.ctx.Attrs != nil {
				return fs.c.ctx.Attrs[e.Name]
			}
		}
		return nil
	case *filterc.Index:
		if ref, ok := e.X.(*filterc.PedfRef); ok && ref.Space == filterc.PedfIO {
			if iface, ok := fs.c.ctx.iface(ref.Name); ok {
				return iface.Type
			}
			return nil
		}
		t := fs.typeOf(e.X)
		if t != nil && t.Kind == filterc.KArray {
			return t.Elem
		}
		return nil
	case *filterc.Member:
		t := fs.typeOf(e.X)
		if t == nil || t.Kind != filterc.KStruct {
			return nil
		}
		if i := t.FieldIndex(e.Name); i >= 0 {
			return t.Fields[i].Type
		}
		fs.c.add(e.P, "FC005", Error,
			fmt.Sprintf("struct %s has no member %q", t.Name, e.Name),
			fmt.Sprintf("members: %s", strings.Join(fieldNames(t), ", ")))
		return nil
	case *filterc.Unary, *filterc.Postfix, *filterc.Binary:
		return filterc.Scalar(filterc.I32)
	case *filterc.Assign:
		return fs.typeOf(e.L)
	case *filterc.Cond:
		if t := fs.typeOf(e.T); t != nil {
			return t
		}
		return fs.typeOf(e.F)
	case *filterc.Call:
		if _, ok := builtins[e.Name]; ok {
			return filterc.Scalar(filterc.I32)
		}
		if fn := fs.c.prog.Func(e.Name); fn != nil {
			return fn.Ret
		}
		switch e.Name {
		case "STEP_INDEX", "IO_AVAILABLE":
			return filterc.Scalar(filterc.U32)
		}
		return nil
	}
	return nil
}

// definiteReturn reports whether every execution path through s returns.
func definiteReturn(s filterc.Stmt) bool {
	switch s := s.(type) {
	case *filterc.ReturnStmt:
		return true
	case *filterc.BlockStmt:
		for _, sub := range s.Stmts {
			if definiteReturn(sub) {
				return true
			}
		}
		return false
	case *filterc.IfStmt:
		return s.Else != nil && definiteReturn(s.Then) && definiteReturn(s.Else)
	}
	return false
}

func sortedKeys(m map[string]*filterc.Type) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fieldNames(t *filterc.Type) []string {
	names := make([]string, len(t.Fields))
	for i, f := range t.Fields {
		names[i] = f.Name
	}
	return names
}

// ConstExpr evaluates a side-effect-free constant expression, reporting
// (value, true) on success. The constant-condition check (FC004) and
// the io index checks use it.
func ConstExpr(e filterc.Expr) (int64, bool) {
	switch e := e.(type) {
	case *filterc.IntLit:
		return e.V, true
	case *filterc.Unary:
		v, ok := ConstExpr(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case "-":
			return -v, true
		case "~":
			return ^v, true
		case "!":
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *filterc.Binary:
		l, ok := ConstExpr(e.L)
		if !ok {
			return 0, false
		}
		r, ok := ConstExpr(e.R)
		if !ok {
			return 0, false
		}
		b2i := func(b bool) int64 {
			if b {
				return 1
			}
			return 0
		}
		switch e.Op {
		case "+":
			return l + r, true
		case "-":
			return l - r, true
		case "*":
			return l * r, true
		case "/":
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case "%":
			if r == 0 {
				return 0, false
			}
			return l % r, true
		case "<<":
			if r < 0 || r > 63 {
				return 0, false
			}
			return l << uint(r), true
		case ">>":
			if r < 0 || r > 63 {
				return 0, false
			}
			return l >> uint(r), true
		case "&":
			return l & r, true
		case "|":
			return l | r, true
		case "^":
			return l ^ r, true
		case "==":
			return b2i(l == r), true
		case "!=":
			return b2i(l != r), true
		case "<":
			return b2i(l < r), true
		case "<=":
			return b2i(l <= r), true
		case ">":
			return b2i(l > r), true
		case ">=":
			return b2i(l >= r), true
		case "&&":
			return b2i(l != 0 && r != 0), true
		case "||":
			return b2i(l != 0 || r != 0), true
		}
		return 0, false
	case *filterc.Cond:
		c, ok := ConstExpr(e.C)
		if !ok {
			return 0, false
		}
		if c != 0 {
			return ConstExpr(e.T)
		}
		return ConstExpr(e.F)
	}
	return 0, false
}
