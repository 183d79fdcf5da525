package filterc

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Differential coverage for what the bytecode VM does differently from
// the walker beyond scalar arithmetic: aggregates that move by
// reference, typed scalar slots rendered by Frame.Locals, and
// activations recycled across calls on one Interp.

// tokType is the struct token the aggregate programs read from the
// tok0 interface; the programs declare the same struct.
var tokType = &Type{Kind: KStruct, Name: "Tok_t", Fields: []Field{
	{Name: "A", Type: Scalar(U32)},
	{Name: "V", Type: ArrayOf(Scalar(I32), 4)},
}}

const tokDecl = "struct Tok_t { u32 A; i32 V[4]; };\n"

// aggEnv extends diffEnv with struct tokens. Like a pedf read window, a
// re-read of an index returns the same storage, and a written token is
// kept as a copy, so a program that mutated either through an alias
// would show it in the rendered window and outputs.
type aggEnv struct {
	*diffEnv
	window  map[int64]Value
	written []string
	kept    []Value
}

func (e *aggEnv) IORead(iface string, idx int64) (Value, error) {
	if iface != "tok0" {
		return e.diffEnv.IORead(iface, idx)
	}
	v, ok := e.window[idx]
	if !ok {
		v = Zero(tokType)
		v.Elems[0] = Int(U32, idx*7+1)
		for k := range v.Elems[1].Elems {
			v.Elems[1].Elems[k] = Int(I32, idx*10-int64(k)*3)
		}
		e.window[idx] = v
	}
	e.tr.add("ioread %s[%d] -> %s", iface, idx, v.String())
	return v, nil
}

func (e *aggEnv) IOWrite(iface string, idx int64, v Value) error {
	e.written = append(e.written, fmt.Sprintf("%s[%d]", iface, idx))
	e.kept = append(e.kept, v.Clone())
	return e.diffEnv.IOWrite(iface, idx, v)
}

// localsHooks traces every hook like diffHooks and also renders the
// frame's visible variables at each statement.
type localsHooks struct{ diffHooks }

func (h *localsHooks) OnStmt(fr *Frame, pos Pos) {
	var sb strings.Builder
	for _, b := range fr.Locals() {
		fmt.Fprintf(&sb, " %s=%s", b.Name, b.Val.String())
	}
	h.tr.add("stmt %s %s:%d depth=%d%s", fr.FuncName(), pos.File, pos.Line, fr.depth, sb.String())
}

// diffCall is one call in a session on a single Interp.
type diffCall struct {
	fn   string
	args []Value
}

// runSession runs calls in order on one Interp of one engine, with
// locals traced at every statement, and flattens everything observable:
// each result or error, pedf.data, the token window and the kept
// outputs, and the event trace.
func runSession(prog *Program, eng Engine, calls []diffCall, maxSteps int64) string {
	tr := &diffTrace{}
	env := &aggEnv{diffEnv: newDiffEnv(tr), window: make(map[int64]Value)}
	in := New(prog, env)
	in.Engine = eng
	in.MaxSteps = maxSteps
	in.Hooks = &localsHooks{diffHooks{tr: tr}}
	var sb strings.Builder
	for _, c := range calls {
		v, err := in.CallFunc(c.fn, c.args)
		if err != nil {
			fmt.Fprintf(&sb, "%s: error %v\n", c.fn, err)
		} else {
			fmt.Fprintf(&sb, "%s: result %s\n", c.fn, v.String())
		}
		if in.CurrentFrame() != nil {
			fmt.Fprintf(&sb, "%s: frame left on the stack\n", c.fn)
		}
	}
	names := make([]string, 0, len(env.data))
	for name := range env.data {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "data %s=%s\n", name, env.data[name].String())
	}
	idx := make([]int64, 0, len(env.window))
	for k := range env.window {
		idx = append(idx, k)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	for _, k := range idx {
		fmt.Fprintf(&sb, "window tok0[%d]=%s\n", k, env.window[k].String())
	}
	for i, v := range env.kept {
		fmt.Fprintf(&sb, "kept %s=%s\n", env.written[i], v.String())
	}
	for _, ev := range tr.events {
		sb.WriteString(ev)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// diffSession parses src and compares one session of calls across the
// engines.
func diffSession(t *testing.T, file, src string, calls []diffCall) {
	t.Helper()
	prog, err := Parse(file, src)
	if err != nil {
		t.Fatalf("parse %s: %v\n%s", file, err, src)
	}
	walker := runSession(prog, EngineWalker, calls, 20000)
	vm := runSession(prog, EngineVM, calls, 20000)
	if walker != vm {
		t.Fatalf("engines diverge on %s:\n%s\n--- walker ---\n%s--- vm ---\n%s", file, src, walker, vm)
	}
}

// scalarCalls lists, for every all-scalar-parameter function of prog,
// three calls with varied arguments.
func scalarCalls(prog *Program) []diffCall {
	var calls []diffCall
	for _, name := range prog.Order {
		for seed := int64(0); seed < 3; seed++ {
			if args, ok := scalarArgs(prog.Func(name), seed); ok {
				calls = append(calls, diffCall{name, args})
			}
		}
	}
	return calls
}

// aggStmt emits one statement over arrays, structs and struct tokens.
func (g *diffGen) aggStmt(indent string) {
	idx := func() string { return "(" + g.expr() + " & 3)" }
	pickAgg := func() (string, bool) {
		if n := len(g.arrs) + len(g.structs); n > 0 {
			if k := g.r.Intn(n); k < len(g.arrs) {
				return g.arrs[k], true
			} else {
				return g.structs[k-len(g.arrs)], false
			}
		}
		return "", false
	}
	switch g.r.Intn(9) {
	case 0:
		name := fmt.Sprintf("a%d", g.fresh)
		g.fresh++
		fmt.Fprintf(&g.sb, "%s%s %s[4];\n", indent, g.pick([]string{"i32", "u8", "u32"}), name)
		g.arrs = append(g.arrs, name)
	case 1:
		name := fmt.Sprintf("s%d", g.fresh)
		g.fresh++
		switch g.r.Intn(3) {
		case 0:
			fmt.Fprintf(&g.sb, "%sTok_t %s;\n", indent, name)
		case 1:
			fmt.Fprintf(&g.sb, "%sTok_t %s = pedf.io.tok0[%s];\n", indent, name, idx())
		default:
			fmt.Fprintf(&g.sb, "%sTok_t %s = mk(%s);\n", indent, name, g.expr())
		}
		g.structs = append(g.structs, name)
	case 2, 3:
		name, arr := pickAgg()
		switch {
		case name == "":
			fmt.Fprintf(&g.sb, "%su32 %s = %s;\n", indent, g.newVar(), g.expr())
		case arr:
			fmt.Fprintf(&g.sb, "%s%s[%s] %s %s;\n", indent, name, idx(), g.pick([]string{"=", "+=", "^="}), g.expr())
		case g.r.Intn(2) == 0:
			fmt.Fprintf(&g.sb, "%s%s.V[%s] = %s;\n", indent, name, idx(), g.expr())
		default:
			fmt.Fprintf(&g.sb, "%s%s.A%s;\n", indent, name, g.pick([]string{"++", "--", " = 3"}))
		}
	case 4:
		// Whole-aggregate copy between locals of one kind.
		if len(g.arrs) > 1 {
			fmt.Fprintf(&g.sb, "%s%s = %s;\n", indent, g.pick(g.arrs), g.pick(g.arrs))
		} else if len(g.structs) > 0 {
			src := g.pick(g.structs)
			if g.r.Intn(2) == 0 {
				src = "pedf.io.tok0[" + idx() + "]"
			}
			fmt.Fprintf(&g.sb, "%s%s = %s;\n", indent, g.pick(g.structs), src)
		}
	case 5, 6:
		// Write a local to io, then mutate it: the kept token must not
		// change.
		if name, arr := pickAgg(); name != "" {
			fmt.Fprintf(&g.sb, "%spedf.io.out1[%s] = %s;\n", indent, idx(), name)
			if arr {
				fmt.Fprintf(&g.sb, "%s%s[0] = %s;\n", indent, name, g.expr())
			} else {
				fmt.Fprintf(&g.sb, "%s%s.V[0] = %s;\n", indent, name, g.expr())
			}
		}
	case 7:
		if len(g.structs) > 0 {
			fmt.Fprintf(&g.sb, "%su32 %s = use(%s);\n", indent, g.newVar(), g.pick(g.structs))
		}
	default:
		if len(g.arrs) > 1 {
			fmt.Fprintf(&g.sb, "%su32 %s = %s == %s;\n", indent, g.newVar(), g.pick(g.arrs), g.pick(g.arrs))
		}
	}
}

// elem emits an element or member read of an aggregate local.
func (g *diffGen) elem() string {
	if k := g.r.Intn(len(g.arrs) + len(g.structs)); k < len(g.arrs) {
		return fmt.Sprintf("%s[%d]", g.arrs[k], g.r.Intn(4))
	} else if g.r.Intn(2) == 0 {
		return g.structs[k-len(g.arrs)] + ".A"
	} else {
		return fmt.Sprintf("%s.V[%d]", g.structs[k-len(g.arrs)], g.r.Intn(4))
	}
}

// genAggProgram is genProgram over aggregates: two struct helpers taken
// and returned by value, plus the generated helper and f.
func genAggProgram(seed int64) string {
	g := &diffGen{r: rand.New(rand.NewSource(seed)), agg: true}
	g.sb.WriteString(tokDecl)
	g.sb.WriteString("Tok_t mk(u32 x) { Tok_t t; t.A = x; t.V[x & 3] = x; return t; }\n")
	g.sb.WriteString("u32 use(Tok_t t) { t.A = t.A + 1; t.V[1] = 5; return t.A + t.V[2]; }\n")
	g.fn("helper", "x", nil)
	g.fn("f", "a", []string{"helper"})
	return g.sb.String()
}

// TestDifferentialAggregates compares the engines on generated programs
// over arrays, structs and struct tokens, with locals rendered at every
// statement and all calls of a program made on one Interp.
func TestDifferentialAggregates(t *testing.T) {
	const programs = 200
	calls := 0
	for seed := int64(1); seed <= programs; seed++ {
		src := genAggProgram(seed)
		prog, err := Parse("agg.c", src)
		if err != nil {
			t.Fatalf("parse seed %d: %v\n%s", seed, err, src)
		}
		cs := scalarCalls(prog)
		diffSession(t, fmt.Sprintf("agg%d.c", seed), src, cs)
		calls += len(cs)
	}
	t.Logf("compared %d calls across %d generated programs", calls, programs)
}

// TestDifferentialLocals re-runs the first 100 scalar programs of
// TestDifferentialVMWalker with Frame.Locals rendered at every statement
// and every call of a program made on one Interp: the typed slots must
// render exactly as the walker's scopes do.
func TestDifferentialLocals(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		src := genProgram(seed)
		prog, err := Parse("gen.c", src)
		if err != nil {
			t.Fatal(err)
		}
		diffSession(t, fmt.Sprintf("gen%d.c", seed), src, scalarCalls(prog))
	}
}

// TestDifferentialAliasing pins the aliasing rules of pass-by-reference
// aggregates: a copy of a token is independent of the read window, a
// written token is independent of the local it came from, and
// parameters and return values are copies.
func TestDifferentialAliasing(t *testing.T) {
	cases := []string{
		// A mutated local copy must not change a re-read of the same io
		// index in the same firing.
		`u32 f(u32 a) { Tok_t t = pedf.io.tok0[1]; t.V[2] = 99; t.A = 7; Tok_t u = pedf.io.tok0[1]; return u.V[2] + u.A; }`,
		`u32 f(u32 a) { Tok_t t; t = pedf.io.tok0[0]; t.V[0]++; Tok_t u = pedf.io.tok0[0]; return u.V[0]; }`,
		// Mutating a local after writing it to io must not change the
		// written token.
		`u32 f(u32 a) { i32 v[4]; v[1] = 5; pedf.io.out1[0] = v; v[1] = 6; pedf.io.out1[1] = v; return v[1]; }`,
		`u32 f(u32 a) { Tok_t t = pedf.io.tok0[2]; pedf.io.out1[0] = t; t.A = 0; pedf.io.out1[1] = t; return t.A; }`,
		// Copies between locals, through assignment chains and io.
		`u32 f(u32 a) { i32 x[4]; i32 y[4]; i32 z[4]; x[0] = 1; z = y = x; x[0] = 2; y[0] = 3; return x[0] * 100 + y[0] * 10 + z[0]; }`,
		`u32 f(u32 a) { u8 x[4]; i32 y[4]; y[2] = 300; x = y; y[2] = 1; return x[2] + y[2]; }`,
		// Parameters are copies; returned aggregates survive the callee.
		`u32 g(Tok_t t) { t.V[3] = 42; return t.V[3]; } u32 f(u32 a) { Tok_t s = pedf.io.tok0[0]; u32 r = g(s); return r + s.V[3]; }`,
		`Tok_t mk(u32 x) { Tok_t t; t.A = x; return t; } u32 f(u32 a) { Tok_t p = mk(1); Tok_t q = mk(2); return p.A * 10 + q.A + (mk(3) == mk(3)); }`,
		// A declaration in a loop is re-zeroed each iteration.
		`u32 f(u32 a) { u32 s = 0; for (u32 i = 0; i < 3; i++) { i32 v[4]; s = s + v[i]; v[i] = 9; } return s; }`,
		// Struct with the same name from io, compared and copied.
		`u32 f(u32 a) { Tok_t t = pedf.io.tok0[1]; return t == pedf.io.tok0[1]; }`,
	}
	for i, body := range cases {
		src := tokDecl + body
		prog, err := Parse("alias.c", src)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		diffSession(t, fmt.Sprintf("alias%d.c", i), src, scalarCalls(prog))
	}
}

// TestDifferentialRepeatedCalls makes many calls on one Interp: varying
// recursion depth, a RuntimeError raised deep in the recursion and the
// calls after it, and calls that alternate between functions whose
// frames share a depth.
func TestDifferentialRepeatedCalls(t *testing.T) {
	src := tokDecl + `
u32 rec(u32 n) {
	i32 v[4];
	Tok_t t = pedf.io.tok0[n & 3];
	v[n & 3] = n;
	if (n == 0) return t.A;
	u32 r = rec(n - 1);
	if (n == 6) return r / (n - 6);
	return r + v[n & 3] + t.V[1];
}
u32 flat(u32 n) { u8 b[4]; b[n & 3] = n; Tok_t s; s.A = n; return b[n & 3] + s.A; }
`
	var calls []diffCall
	for _, n := range []int64{0, 3, 1, 5, 7, 2, 6, 4, 0, 9, 1} {
		calls = append(calls, diffCall{"rec", []Value{Int(U32, n)}}, diffCall{"flat", []Value{Int(U32, n*5)}})
	}
	// A wrong argument count fails before any frame is pushed.
	calls = append(calls, diffCall{"rec", nil}, diffCall{"flat", []Value{Int(U32, 3)}})
	// A string argument for a numeric parameter is refused on both
	// engines ("cannot pass string as U32").
	calls = append(calls, diffCall{"flat", []Value{StringVal("x")}}, diffCall{"rec", []Value{Int(U32, 2)}})
	diffSession(t, "rec.c", src, calls)
	prog, _ := Parse("rec.c", src)
	if out := runSession(prog, EngineVM, calls[len(calls)-2:], 20000); !strings.Contains(out, "argument 1 of flat: cannot pass") {
		t.Errorf("string argument for a u32 parameter accepted:\n%s", out)
	}
}

// TestDifferentialValueSlotErrors covers the operators the VM refuses
// on Value slots (aggregates and void variables) without evaluating
// them: the errors, their order and positions match the walker's.
func TestDifferentialValueSlotErrors(t *testing.T) {
	cases := []string{
		`u32 f(u32 a) { i32 v[2]; v += a++; return a; }`,
		`u32 f(u32 a) { Tok_t s; s++; return 1; }`,
		`u32 f(u32 a) { void x; x--; return 2; }`,
		`u32 f(u32 a) { void x; x *= 3; return 3; }`,
		`u32 f(u32 a) { switch (a) { case 0: i32 v[2]; case 1: v++; } return 4; }`,
		`u32 f(u32 a) { i32 v[2]; return min(v, 1) + abs() + clamp(1, 2); }`,
	}
	for i, body := range cases {
		src := tokDecl + body
		prog, err := Parse("slot.c", src)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		diffSession(t, fmt.Sprintf("slot%d.c", i), src, scalarCalls(prog))
	}
}
