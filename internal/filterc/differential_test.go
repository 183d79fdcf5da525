package filterc

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Differential testing of the two execution engines: the bytecode VM must
// be observably indistinguishable from the tree-walking oracle. "Observable"
// is everything a debugger or the PEDF runtime can see: the call result,
// the error (position and message), the OnStmt/OnEnter/OnExit hook stream,
// io traffic, and final pedf.data state.

// diffTrace accumulates every observable event of one run, in order.
type diffTrace struct {
	events []string
}

func (tr *diffTrace) add(format string, args ...any) {
	tr.events = append(tr.events, fmt.Sprintf(format, args...))
}

type diffHooks struct{ tr *diffTrace }

func (h *diffHooks) OnStmt(fr *Frame, pos Pos) {
	h.tr.add("stmt %s %s:%d", fr.FuncName(), pos.File, pos.Line)
}
func (h *diffHooks) OnEnter(fr *Frame) { h.tr.add("enter %s", fr.FuncName()) }
func (h *diffHooks) OnExit(fr *Frame, ret Value) {
	h.tr.add("exit %s ret=%s", fr.FuncName(), ret.String())
}

// diffEnv is a deterministic Env: reads are a pure function of
// (iface, index), writes and reads are traced, and a small fixed set of
// data objects and attributes exists.
type diffEnv struct {
	tr    *diffTrace
	data  map[string]*Value
	attrs map[string]*Value
}

func newDiffEnv(tr *diffTrace) *diffEnv {
	d0, d1 := Int(U32, 0), Int(I32, -5)
	qp, n := Int(U32, 8), Int(U32, 3)
	return &diffEnv{
		tr:    tr,
		data:  map[string]*Value{"d0": &d0, "d1": &d1},
		attrs: map[string]*Value{"qp": &qp, "n": &n},
	}
}

func (e *diffEnv) IORead(iface string, idx int64) (Value, error) {
	v := Int(U32, int64(len(iface))*131+idx*17+5)
	e.tr.add("ioread %s[%d] -> %s", iface, idx, v.String())
	return v, nil
}

func (e *diffEnv) IOWrite(iface string, idx int64, v Value) error {
	e.tr.add("iowrite %s[%d] <- %s", iface, idx, v.String())
	return nil
}

func (e *diffEnv) DataRef(name string) (*Value, error) {
	if v, ok := e.data[name]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("no data %q", name)
}

func (e *diffEnv) AttrRef(name string) (*Value, error) {
	if v, ok := e.attrs[name]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("no attribute %q", name)
}

func (e *diffEnv) Intrinsic(name string, args []Value) (Value, bool, error) {
	if name == "NOP" {
		e.tr.add("intrinsic NOP/%d", len(args))
		return VoidVal(), true, nil
	}
	return Value{}, false, nil
}

// runEngine executes fn on one engine and flattens everything observable
// into one string.
func runEngine(prog *Program, eng Engine, fn string, args []Value, maxSteps int64) string {
	tr := &diffTrace{}
	env := newDiffEnv(tr)
	in := New(prog, env)
	in.Engine = eng
	in.MaxSteps = maxSteps
	in.Hooks = &diffHooks{tr: tr}
	v, err := in.CallFunc(fn, args)
	var sb strings.Builder
	if err != nil {
		fmt.Fprintf(&sb, "error %v\n", err)
	} else {
		fmt.Fprintf(&sb, "result %s\n", v.String())
	}
	names := make([]string, 0, len(env.data))
	for name := range env.data {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "data %s=%s\n", name, env.data[name].String())
	}
	for _, ev := range tr.events {
		sb.WriteString(ev)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// scalarArgs synthesizes call arguments for a function whose parameters
// are all scalars; ok=false otherwise.
func scalarArgs(fn *FuncDecl, seed int64) ([]Value, bool) {
	picks := []int64{0, 1, 2, 7, 255, 4096, -1, 1021}
	args := make([]Value, len(fn.Params))
	for i, p := range fn.Params {
		if p.Type == nil || p.Type.Kind != KScalar || p.Type.Base == Str || p.Type.Base == Void {
			return nil, false
		}
		args[i] = Int(p.Type.Base, picks[(seed+int64(i))%int64(len(picks))])
	}
	return args, true
}

// diffProgram runs every scalar-parameter function of src on both engines
// and reports the first divergence. Returns how many calls were compared.
func diffProgram(t *testing.T, file, src string, maxSteps int64) int {
	t.Helper()
	prog, err := Parse(file, src)
	if err != nil {
		t.Fatalf("parse %s: %v\n%s", file, err, src)
	}
	calls := 0
	for _, name := range prog.Order {
		fn := prog.Func(name)
		for seed := int64(0); seed < 3; seed++ {
			args, ok := scalarArgs(fn, seed)
			if !ok {
				break
			}
			walker := runEngine(prog, EngineWalker, name, args, maxSteps)
			vm := runEngine(prog, EngineVM, name, args, maxSteps)
			if walker != vm {
				t.Fatalf("engines diverge on %s(%v) in:\n%s\n--- walker ---\n%s--- vm ---\n%s",
					name, args, src, walker, vm)
			}
			calls++
		}
	}
	return calls
}

// ---- random program generator ----

// diffGen emits random but always-parseable filterc programs over the
// scalar subset of the language: declarations, assignments (plain,
// compound, inc/dec), if/else, for, while, switch, break/continue,
// helper calls, io/data/attribute accessors. Programs may divide by
// zero, shift out of range or run past MaxSteps — the engines must then
// agree on the error, too.
type diffGen struct {
	r     *rand.Rand
	sb    strings.Builder
	vars  []string
	fresh int
	loops int
	depth int
	// helpers available for calls in the main function's body.
	callables []string
	// agg enables arrays, structs and struct tokens (genAggProgram);
	// arrs and structs are the aggregate locals in scope.
	agg     bool
	arrs    []string
	structs []string
}

func (g *diffGen) pick(ss []string) string { return ss[g.r.Intn(len(ss))] }

func (g *diffGen) expr() string {
	g.depth++
	defer func() { g.depth-- }()
	if g.depth > 4 || g.r.Intn(3) == 0 {
		// Leaf.
		if g.agg && len(g.arrs)+len(g.structs) > 0 && g.r.Intn(3) == 0 {
			return g.elem()
		}
		switch g.r.Intn(4) {
		case 0:
			return g.pick([]string{"0", "1", "2", "3", "7", "13", "255", "1021", "65535"})
		case 1, 2:
			if len(g.vars) > 0 {
				return g.pick(g.vars)
			}
			return "1"
		default:
			return g.pick([]string{"pedf.attribute.qp", "pedf.attribute.n", "pedf.data.d0", "pedf.data.d1"})
		}
	}
	switch g.r.Intn(8) {
	case 0:
		return "(" + g.pick([]string{"-", "~", "!"}) + g.expr() + ")"
	case 1:
		if len(g.callables) > 0 {
			return g.pick(g.callables) + "(" + g.expr() + ")"
		}
		fallthrough
	default:
		op := g.pick([]string{
			"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
			"<", "<=", ">", ">=", "==", "!=", "&&", "||",
		})
		return "(" + g.expr() + " " + op + " " + g.expr() + ")"
	}
}

func (g *diffGen) newVar() string {
	g.fresh++
	name := fmt.Sprintf("v%d", g.fresh)
	g.vars = append(g.vars, name)
	return name
}

func (g *diffGen) stmt(indent string) {
	if g.agg && g.r.Intn(3) == 0 {
		g.aggStmt(indent)
		return
	}
	switch g.r.Intn(12) {
	case 0, 1:
		ty := g.pick([]string{"u32", "i32", "u16", "u8"})
		e := g.expr()
		fmt.Fprintf(&g.sb, "%s%s %s = %s;\n", indent, ty, g.newVar(), e)
	case 2, 3:
		if len(g.vars) == 0 {
			fmt.Fprintf(&g.sb, "%su32 %s = %s;\n", indent, g.newVar(), g.expr())
			return
		}
		op := g.pick([]string{"=", "+=", "-=", "*=", "&=", "|=", "^="})
		fmt.Fprintf(&g.sb, "%s%s %s %s;\n", indent, g.pick(g.vars), op, g.expr())
	case 4:
		if len(g.vars) == 0 {
			return
		}
		fmt.Fprintf(&g.sb, "%s%s%s;\n", indent, g.pick(g.vars), g.pick([]string{"++", "--"}))
	case 5:
		fmt.Fprintf(&g.sb, "%sif (%s) {\n", indent, g.expr())
		g.block(indent+"\t", 2)
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(&g.sb, "%s} else {\n", indent)
			g.block(indent+"\t", 2)
		}
		fmt.Fprintf(&g.sb, "%s}\n", indent)
	case 6:
		i := g.newVar()
		fmt.Fprintf(&g.sb, "%sfor (u32 %s = 0; %s < %d; %s++) {\n",
			indent, i, i, 2+g.r.Intn(6), i)
		g.loops++
		g.block(indent+"\t", 2)
		g.loops--
		fmt.Fprintf(&g.sb, "%s}\n", indent)
	case 7:
		i := g.newVar()
		fmt.Fprintf(&g.sb, "%su32 %s = %d;\n", indent, i, 1+g.r.Intn(5))
		fmt.Fprintf(&g.sb, "%swhile (%s > 0) {\n", indent, i)
		g.loops++
		g.block(indent+"\t", 2)
		g.loops--
		fmt.Fprintf(&g.sb, "%s\t%s--;\n", indent, i)
		fmt.Fprintf(&g.sb, "%s}\n", indent)
	case 8:
		fmt.Fprintf(&g.sb, "%sswitch (%s %% 4) {\n", indent, g.expr())
		for c := 0; c < 1+g.r.Intn(3); c++ {
			fmt.Fprintf(&g.sb, "%scase %d:\n", indent, c)
			g.block(indent+"\t", 1)
			fmt.Fprintf(&g.sb, "%s\tbreak;\n", indent)
		}
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(&g.sb, "%sdefault:\n", indent)
			g.block(indent+"\t", 1)
		}
		fmt.Fprintf(&g.sb, "%s}\n", indent)
	case 9:
		if g.loops > 0 && g.r.Intn(2) == 0 {
			fmt.Fprintf(&g.sb, "%sif (%s) { %s; }\n", indent, g.expr(),
				g.pick([]string{"break", "continue"}))
			return
		}
		fmt.Fprintf(&g.sb, "%spedf.io.out0[%s %% 4] = %s;\n", indent, g.expr(), g.expr())
	case 10:
		fmt.Fprintf(&g.sb, "%s%s %s = pedf.io.in0[%s %% 8];\n",
			indent, g.pick([]string{"u32", "i32"}), g.newVar(), g.expr())
	default:
		fmt.Fprintf(&g.sb, "%spedf.data.%s = %s;\n",
			indent, g.pick([]string{"d0", "d1"}), g.expr())
	}
}

func (g *diffGen) block(indent string, n int) {
	mark, arrs, structs := len(g.vars), len(g.arrs), len(g.structs)
	for i := 0; i < 1+g.r.Intn(n); i++ {
		g.stmt(indent)
	}
	g.vars, g.arrs, g.structs = g.vars[:mark], g.arrs[:arrs], g.structs[:structs]
}

func (g *diffGen) fn(name, param string, callables []string) {
	g.vars = []string{param}
	g.arrs, g.structs = nil, nil
	g.fresh = 0
	g.callables = callables
	fmt.Fprintf(&g.sb, "u32 %s(u32 %s) {\n", name, param)
	for i := 0; i < 3+g.r.Intn(5); i++ {
		g.stmt("\t")
	}
	fmt.Fprintf(&g.sb, "\treturn %s;\n}\n", g.expr())
}

func genProgram(seed int64) string {
	g := &diffGen{r: rand.New(rand.NewSource(seed))}
	g.fn("helper", "x", nil)
	g.fn("f", "a", []string{"helper"})
	return g.sb.String()
}

// TestDifferentialVMWalker generates seeded random programs and checks
// the two engines agree on every observable for every one of them. CI
// fails if this test is skipped or missing (it is the gate that keeps
// the VM honest).
func TestDifferentialVMWalker(t *testing.T) {
	const programs = 300
	calls := 0
	for seed := int64(1); seed <= programs; seed++ {
		src := genProgram(seed)
		calls += diffProgram(t, fmt.Sprintf("gen%d.c", seed), src, 20000)
	}
	if calls < programs {
		t.Fatalf("only %d calls compared across %d programs", calls, programs)
	}
	t.Logf("compared %d calls across %d generated programs", calls, programs)
}

// TestDifferentialHandWritten pins tricky hand-picked cases: division by
// zero mid-expression, shift out of range, MaxSteps exhaustion inside a
// fused loop, short-circuit skipping a side effect, and use of an
// out-of-scope slot's former value.
func TestDifferentialHandWritten(t *testing.T) {
	cases := []string{
		`u32 f(u32 a) { return 10 / (a - a); }`,
		`u32 f(u32 a) { u32 s = 0; for (u32 i = 0; i < 10; i++) { s += i / (8 - i); } return s; }`,
		`u32 f(u32 a) { return a << (a + 40); }`,
		`u32 f(u32 a) { while (1) { a++; } return a; }`,
		`u32 f(u32 a) { u32 s = 0; for (u32 i = 0; i < 5; i++) { u32 t = i * i; s += t; } return s; }`,
		`u32 f(u32 a) { return (a == 0) || (10 / a > 1); }`,
		`u32 f(u32 a) { return (a != 0) && (10 / a > 1); }`,
		`u32 g(u32 x) { pedf.data.d0 = x; return x + 1; } u32 f(u32 a) { return g(a) + g(a + 1); }`,
		`u32 f(u32 a) { i32 x = -1; u32 y = 1; return x < y; }`,
		`u32 f(u32 a) { u8 x = 250; x += 10; return x; }`,
		`u32 f(u32 a) { switch (a % 3) { case 0: return 1; case 1: break; default: return 3; } return 2; }`,
	}
	for i, src := range cases {
		if n := diffProgram(t, fmt.Sprintf("hand%d.c", i), src, 20000); n == 0 {
			t.Fatalf("case %d compared no calls", i)
		}
	}
}

// FuzzVMWalkerEquivalence feeds arbitrary source text through both
// engines. Programs that do not parse are uninteresting; for everything
// that parses, the engines must agree on all observables within a small
// step budget.
func FuzzVMWalkerEquivalence(f *testing.F) {
	f.Add(`u32 f(u32 a) { u32 s = 0; for (u32 i = 0; i < a; i++) { s = s + (i ^ (s << 1)) % 1021; } return s; }`)
	f.Add(`u32 f(u32 a) { return 10 / a; }`)
	f.Add(`u32 f(u32 a) { pedf.io.out0[0] = pedf.io.in0[a]; return pedf.data.d0; }`)
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(genProgram(seed))
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse("fuzz.c", src)
		if err != nil {
			return
		}
		for _, name := range prog.Order {
			fn := prog.Func(name)
			args, ok := scalarArgs(fn, 1)
			if !ok {
				continue
			}
			walker := runEngine(prog, EngineWalker, name, args, 20000)
			vm := runEngine(prog, EngineVM, name, args, 20000)
			if walker != vm {
				t.Fatalf("engines diverge on %s in:\n%s\n--- walker ---\n%s--- vm ---\n%s",
					name, src, walker, vm)
			}
		}
	})
}
