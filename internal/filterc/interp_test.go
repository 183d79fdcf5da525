package filterc

import (
	"fmt"
	"testing"
	"testing/quick"
)

// testEnv is a fake Env backed by in-memory queues and maps.
type testEnv struct {
	inputs  map[string][]Value // iface → pending tokens
	outputs map[string][]Value
	data    map[string]*Value
	attrs   map[string]*Value
	calls   []string // intrinsic invocations, for assertion
}

func newTestEnv() *testEnv {
	return &testEnv{
		inputs:  make(map[string][]Value),
		outputs: make(map[string][]Value),
		data:    make(map[string]*Value),
		attrs:   make(map[string]*Value),
	}
}

func (e *testEnv) IORead(iface string, idx int64) (Value, error) {
	q := e.inputs[iface]
	if len(q) == 0 {
		return Value{}, fmt.Errorf("input %q empty", iface)
	}
	v := q[0]
	e.inputs[iface] = q[1:]
	return v, nil
}

func (e *testEnv) IOWrite(iface string, idx int64, v Value) error {
	e.outputs[iface] = append(e.outputs[iface], v.Clone())
	return nil
}

func (e *testEnv) DataRef(name string) (*Value, error) {
	if v, ok := e.data[name]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("no data %q", name)
}

func (e *testEnv) AttrRef(name string) (*Value, error) {
	if v, ok := e.attrs[name]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("no attribute %q", name)
}

func (e *testEnv) Intrinsic(name string, args []Value) (Value, bool, error) {
	switch name {
	case "ACTOR_START", "ACTOR_SYNC", "ACTOR_FIRE":
		if len(args) != 1 || args[0].Type.Base != Str {
			return Value{}, true, fmt.Errorf("%s needs a string argument", name)
		}
		e.calls = append(e.calls, name+"("+args[0].S+")")
		return VoidVal(), true, nil
	case "WAIT_FOR_ACTOR_SYNC", "WAIT_FOR_ACTOR_INIT":
		e.calls = append(e.calls, name+"()")
		return VoidVal(), true, nil
	}
	return Value{}, false, nil
}

func run(t *testing.T, src string, env Env, fn string, args ...Value) Value {
	t.Helper()
	prog, err := Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if env == nil {
		env = newTestEnv()
	}
	in := New(prog, env)
	v, err := in.CallFunc(fn, args)
	if err != nil {
		t.Fatalf("call %s: %v", fn, err)
	}
	return v
}

func runErr(t *testing.T, src string, env Env, fn string, args ...Value) error {
	t.Helper()
	prog, err := Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if env == nil {
		env = newTestEnv()
	}
	in := New(prog, env)
	_, err = in.CallFunc(fn, args)
	if err == nil {
		t.Fatalf("call %s succeeded, want error", fn)
	}
	return err
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 / 3", 3},
		{"10 % 3", 1},
		{"-5 + 2", -3},
		{"1 << 4", 16},
		{"255 >> 4", 15},
		{"0xF0 | 0x0F", 255},
		{"0xFF & 0x0F", 15},
		{"0xFF ^ 0xF0", 15},
		{"~0", -1},
		{"1 < 2", 1},
		{"2 <= 1", 0},
		{"3 == 3", 1},
		{"3 != 3", 0},
		{"1 && 0", 0},
		{"1 || 0", 1},
		{"!0", 1},
		{"!7", 0},
		{"1 ? 10 : 20", 10},
		{"0 ? 10 : 20", 20},
		{"min(3, 5)", 3},
		{"max(3, 5)", 5},
		{"abs(0 - 9)", 9},
		{"clamp(300, 0, 255)", 255},
		{"clamp(0-5, 0, 255)", 0},
	}
	for _, c := range cases {
		v := run(t, fmt.Sprintf("i32 f() { return %s; }", c.expr), nil, "f")
		if v.I != c.want {
			t.Errorf("%s = %d, want %d", c.expr, v.I, c.want)
		}
	}
}

func TestTruncationSemantics(t *testing.T) {
	// u8 wraps at 256.
	v := run(t, "u8 f() { u8 x = 250; x = x + 10; return x; }", nil, "f")
	if v.I != 4 {
		t.Errorf("u8 wrap: got %d, want 4", v.I)
	}
	// i8 sign wraps.
	v = run(t, "i8 f() { i8 x = 127; x = x + 1; return x; }", nil, "f")
	if v.I != -128 {
		t.Errorf("i8 wrap: got %d, want -128", v.I)
	}
	// u16 stores modulo 65536.
	v = run(t, "u16 f() { u16 x = 65535; x++; return x; }", nil, "f")
	if v.I != 0 {
		t.Errorf("u16 wrap: got %d, want 0", v.I)
	}
}

func TestUnsignedComparisonAndDivision(t *testing.T) {
	// (u32)-1 is 4294967295, which is > 1 under unsigned comparison.
	v := run(t, "i32 f() { u32 big = 0 - 1; u32 one = 1; if (big > one) return 1; return 0; }", nil, "f")
	if v.I != 1 {
		t.Errorf("unsigned comparison failed: got %d", v.I)
	}
	v = run(t, "u32 f() { u32 big = 0 - 2; u32 two = 2; return big / two; }", nil, "f")
	if v.I != 2147483647 {
		t.Errorf("unsigned division = %d, want 2147483647", v.I)
	}
}

func TestIncDecOperators(t *testing.T) {
	v := run(t, "i32 f() { i32 x = 5; i32 a = x++; i32 b = ++x; i32 c = x--; i32 d = --x; return a*1000 + b*100 + c*10 + d; }", nil, "f")
	// a=5, x=6; b=7, x=7; c=7, x=6; d=5
	if v.I != 5*1000+7*100+7*10+5 {
		t.Errorf("inc/dec = %d", v.I)
	}
}

func TestCompoundAssignments(t *testing.T) {
	v := run(t, `i32 f() {
		i32 x = 10;
		x += 5; x -= 3; x *= 2; x /= 4; x %= 4;
		x <<= 3; x |= 1; x &= 0xF; x ^= 2;
		return x;
	}`, nil, "f")
	// 10+5=15, -3=12, *2=24, /4=6, %4=2, <<3=16, |1=17, &0xF=1, ^2=3
	if v.I != 3 {
		t.Errorf("compound chain = %d, want 3", v.I)
	}
}

func TestArraysAndLoops(t *testing.T) {
	v := run(t, `u32 f() {
		u32 a[10];
		for (u32 i = 0; i < 10; i++) a[i] = i * i;
		u32 s = 0;
		u32 j = 0;
		while (j < 10) { s += a[j]; j++; }
		return s;
	}`, nil, "f")
	if v.I != 285 {
		t.Errorf("sum of squares = %d, want 285", v.I)
	}
}

func TestBreakContinue(t *testing.T) {
	v := run(t, `i32 f() {
		i32 s = 0;
		for (i32 i = 0; i < 100; i++) {
			if (i % 2 == 0) continue;
			if (i > 10) break;
			s += i;
		}
		return s;
	}`, nil, "f")
	if v.I != 1+3+5+7+9 {
		t.Errorf("break/continue sum = %d, want 25", v.I)
	}
}

func TestSwitchStatement(t *testing.T) {
	src := `i32 f(i32 m) {
	i32 r = 0;
	switch (m) {
	case 0:
		r = 10;
		break;
	case 1, 2:
		r = 20;
		break;
	case 3:
		r = 1; // falls through into default
	default:
		r = r + 100;
		break;
	}
	return r;
}`
	prog := MustParse("t.c", src)
	in := New(prog, newTestEnv())
	cases := map[int64]int64{0: 10, 1: 20, 2: 20, 3: 101, 9: 100}
	for m, want := range cases {
		v, err := in.CallFunc("f", []Value{Int(I32, m)})
		if err != nil {
			t.Fatalf("f(%d): %v", m, err)
		}
		if v.I != want {
			t.Errorf("f(%d) = %d, want %d", m, v.I, want)
		}
	}
}

func TestSwitchInsideLoop(t *testing.T) {
	// break inside switch leaves the switch, not the loop; continue
	// inside switch continues the loop.
	v := run(t, `i32 f() {
	i32 s = 0;
	for (i32 i = 0; i < 6; i++) {
		switch (i % 3) {
		case 0:
			continue;
		case 1:
			s = s + 10;
			break;
		default:
			s = s + 1;
		}
		s = s + 100; // reached for i%3 != 0
	}
	return s;
}`, nil, "f")
	// i=0 skip; i=1: +10+100; i=2: +1+100; i=3 skip; i=4: +10+100; i=5: +1+100
	if v.I != 2*(10+100)+2*(1+100) {
		t.Errorf("switch-in-loop = %d, want %d", v.I, 2*(10+100)+2*(1+100))
	}
}

func TestSwitchReturnAndNoMatch(t *testing.T) {
	v := run(t, `i32 f(i32 m) {
	switch (m) {
	case 1:
		return 111;
	}
	return 7;
}`, nil, "f", Int(I32, 1))
	if v.I != 111 {
		t.Errorf("switch return = %d", v.I)
	}
	v = run(t, `i32 f(i32 m) {
	switch (m) {
	case 1:
		return 111;
	}
	return 7;
}`, nil, "f", Int(I32, 5))
	if v.I != 7 {
		t.Errorf("no-match switch = %d, want 7", v.I)
	}
}

func TestSwitchParseErrors(t *testing.T) {
	bad := []string{
		`void f() { switch (1) { bogus: ; } }`,
		`void f() { switch (1) { default: ; default: ; } }`,
		`void f() { switch (1) { case 1 } }`,
		`void f() { switch (1) {`,
	}
	for _, src := range bad {
		if _, err := Parse("t.c", src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestSwitchStmtLines(t *testing.T) {
	prog := MustParse("t.c", `void f() {
	switch (1) {
	case 1:
		pedf.data.x = 1;
		break;
	}
}`)
	lines := prog.StmtLines()
	// switch@2, assign@4, break@5
	if len(lines) != 3 || lines[0].Line != 2 || lines[1].Line != 4 || lines[2].Line != 5 {
		t.Errorf("stmt lines = %+v", lines)
	}
}

func TestStructValues(t *testing.T) {
	v := run(t, `
struct MB { u32 Addr; u32 InterNotIntra; i32 Izz; };
i32 f() {
	MB m;
	m.Addr = 0x145D;
	m.InterNotIntra = 1;
	m.Izz = 168460492;
	MB n = m;
	n.Izz = 0;
	return m.Izz;
}`, nil, "f")
	if v.I != 168460492 {
		t.Errorf("struct copy aliased: m.Izz = %d", v.I)
	}
}

func TestStructInArrayAndNestedAccess(t *testing.T) {
	v := run(t, `
struct P { i32 x; i32 y; };
i32 f() {
	P ps[3];
	for (i32 i = 0; i < 3; i++) { ps[i].x = i; ps[i].y = i * 10; }
	return ps[2].x + ps[2].y;
}`, nil, "f")
	if v.I != 22 {
		t.Errorf("nested access = %d, want 22", v.I)
	}
}

func TestUserFunctionCallsAndRecursion(t *testing.T) {
	v := run(t, `
i32 fib(i32 n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
i32 f() { return fib(12); }`, nil, "f")
	if v.I != 144 {
		t.Errorf("fib(12) = %d, want 144", v.I)
	}
}

func TestPedfIOAndDataAccessors(t *testing.T) {
	env := newTestEnv()
	env.inputs["an_input"] = []Value{Int(U32, 41)}
	d := Int(U32, 0)
	env.data["count"] = &d
	a := Int(U32, 1)
	env.attrs["offset"] = &a
	run(t, `void work() {
		u32 v = pedf.io.an_input[0];
		pedf.data.count = pedf.data.count + 1;
		pedf.io.an_output[0] = v + pedf.attribute.offset;
	}`, env, "work")
	if d.I != 1 {
		t.Errorf("data.count = %d, want 1", d.I)
	}
	out := env.outputs["an_output"]
	if len(out) != 1 || out[0].I != 42 {
		t.Errorf("output = %v, want [42]", out)
	}
}

func TestControllerIntrinsics(t *testing.T) {
	env := newTestEnv()
	run(t, `void work() {
		ACTOR_START("filter_1");
		ACTOR_START("filter_2");
		WAIT_FOR_ACTOR_INIT();
		ACTOR_SYNC("filter_1");
		WAIT_FOR_ACTOR_SYNC();
	}`, env, "work")
	want := []string{"ACTOR_START(filter_1)", "ACTOR_START(filter_2)",
		"WAIT_FOR_ACTOR_INIT()", "ACTOR_SYNC(filter_1)", "WAIT_FOR_ACTOR_SYNC()"}
	if fmt.Sprint(env.calls) != fmt.Sprint(want) {
		t.Errorf("intrinsics = %v, want %v", env.calls, want)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := map[string]string{
		"div by zero":         "i32 f() { i32 z = 0; return 1 / z; }",
		"mod by zero":         "i32 f() { i32 z = 0; return 1 % z; }",
		"oob index":           "i32 f() { u32 a[2]; return a[5]; }",
		"negative index":      "i32 f() { u32 a[2]; i32 i = 0 - 1; return a[i]; }",
		"undefined var":       "i32 f() { return nope; }",
		"unknown func":        "i32 f() { return g(); }",
		"bad shift":           "i32 f() { i32 s = 40; return 1 << s; }",
		"redeclare":           "i32 f() { i32 x = 1; i32 x = 2; return x; }",
		"no field":            "struct S { i32 a; }; i32 f() { S s; return s.b; }",
		"member on scalar":    "i32 f() { i32 x = 1; return x.a; }",
		"index scalar":        "i32 f() { i32 x = 1; x[0] = 2; return 0; }",
		"io compound assign":  "void f() { pedf.io.out[0] += 1; }",
		"wrong arity":         "i32 g(i32 a) { return a; } i32 f() { return g(); }",
		"struct as condition": "struct S { i32 a; }; i32 f() { S s; return 1 / s; }",
	}
	for name, src := range cases {
		err := runErr(t, src, nil, "f")
		if _, ok := err.(*RuntimeError); !ok {
			t.Errorf("%s: error type = %T (%v), want *RuntimeError", name, err, err)
		}
	}
}

func TestMissingFunction(t *testing.T) {
	prog := MustParse("t.c", "void f() {}")
	in := New(prog, newTestEnv())
	if _, err := in.CallFunc("nope", nil); err == nil {
		t.Error("calling missing function succeeded")
	}
}

func TestRunawayLoopGuard(t *testing.T) {
	prog := MustParse("t.c", "void f() { while (1) { } }")
	in := New(prog, newTestEnv())
	in.MaxSteps = 1000
	_, err := in.CallFunc("f", nil)
	if err == nil {
		t.Fatal("runaway loop not caught")
	}
}

// hookRecorder records OnStmt lines and enter/exit events.
type hookRecorder struct {
	lines  []int
	enters []string
	exits  []string
}

func (h *hookRecorder) OnStmt(fr *Frame, pos Pos)   { h.lines = append(h.lines, pos.Line) }
func (h *hookRecorder) OnEnter(fr *Frame)           { h.enters = append(h.enters, fr.FuncName()) }
func (h *hookRecorder) OnExit(fr *Frame, ret Value) { h.exits = append(h.exits, fr.FuncName()) }

func TestHooksFireAtStatements(t *testing.T) {
	prog := MustParse("t.c", `i32 g(i32 x) {
	return x + 1;
}
i32 f() {
	i32 a = 1;
	a = g(a);
	return a;
}`)
	in := New(prog, newTestEnv())
	h := &hookRecorder{}
	in.Hooks = h
	v, err := in.CallFunc("f", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 2 {
		t.Errorf("f() = %d, want 2", v.I)
	}
	// Lines: decl@5, call@6, return@2 (inside g), return@7.
	want := []int{5, 6, 2, 7}
	if fmt.Sprint(h.lines) != fmt.Sprint(want) {
		t.Errorf("stmt lines = %v, want %v", h.lines, want)
	}
	if fmt.Sprint(h.enters) != fmt.Sprint([]string{"f", "g"}) {
		t.Errorf("enters = %v", h.enters)
	}
	if fmt.Sprint(h.exits) != fmt.Sprint([]string{"g", "f"}) {
		t.Errorf("exits = %v", h.exits)
	}
}

// stackInspector checks Stack/Locals from inside a hook.
type stackInspector struct {
	t        *testing.T
	in       *Interp
	deepSeen bool
}

func (h *stackInspector) OnStmt(fr *Frame, pos Pos) {
	if fr.FuncName() == "g" {
		h.deepSeen = true
		in := h.in
		stack := in.Stack()
		if len(stack) != 2 || stack[0].FuncName() != "g" || stack[1].FuncName() != "f" {
			h.t.Errorf("stack = %v", stackNames(stack))
		}
		if v, ok := stack[1].Lookup("a"); !ok || v.I != 1 {
			h.t.Errorf("caller local a = %v ok=%v", v, ok)
		}
	}
}
func (h *stackInspector) OnEnter(fr *Frame)           {}
func (h *stackInspector) OnExit(fr *Frame, ret Value) {}

func stackNames(fs []*Frame) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.FuncName())
	}
	return out
}

func TestStackInspectionFromHook(t *testing.T) {
	prog := MustParse("t.c", `i32 g(i32 x) { return x * 2; }
i32 f() { i32 a = 1; return g(a); }`)
	in := New(prog, newTestEnv())
	h := &stackInspector{t: t}
	h.in = in
	in.Hooks = h
	if _, err := in.CallFunc("f", nil); err != nil {
		t.Fatal(err)
	}
	if !h.deepSeen {
		t.Error("hook never saw frame g")
	}
	if in.CurrentFrame() != nil || in.Depth() != 0 {
		t.Error("stack not empty after call")
	}
}

func TestFrameLocalsOrderingAndShadowing(t *testing.T) {
	prog := MustParse("t.c", `i32 f() {
	i32 x = 1;
	{
		i32 x = 2;
		i32 y = 3;
		return x + y;
	}
}`)
	in := New(prog, newTestEnv())
	var locals []VarBinding
	in.Hooks = &funcHooks{onStmt: func(fr *Frame, pos Pos) {
		if pos.Line == 6 {
			locals = fr.Locals()
		}
	}}
	v, err := in.CallFunc("f", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 5 {
		t.Errorf("f() = %d, want 5", v.I)
	}
	// Inner x (=2) shadows outer x; both x and y visible exactly once.
	found := map[string]int64{}
	for _, b := range locals {
		if _, dup := found[b.Name]; dup {
			t.Errorf("local %q listed twice", b.Name)
		}
		found[b.Name] = b.Val.I
	}
	if found["x"] != 2 || found["y"] != 3 {
		t.Errorf("locals = %v", found)
	}
}

// funcHooks adapts closures to the Hooks interface.
type funcHooks struct {
	onStmt  func(*Frame, Pos)
	onEnter func(*Frame)
	onExit  func(*Frame, Value)
}

func (h *funcHooks) OnStmt(fr *Frame, pos Pos) {
	if h.onStmt != nil {
		h.onStmt(fr, pos)
	}
}
func (h *funcHooks) OnEnter(fr *Frame) {
	if h.onEnter != nil {
		h.onEnter(fr)
	}
}
func (h *funcHooks) OnExit(fr *Frame, ret Value) {
	if h.onExit != nil {
		h.onExit(fr, ret)
	}
}

func TestValueStringFormats(t *testing.T) {
	if s := Int(U16, 5).String(); s != "5" {
		t.Errorf("scalar string = %q", s)
	}
	st := &Type{Kind: KStruct, Name: "S", Fields: []Field{
		{Name: "Addr", Type: Scalar(U32)}, {Name: "Izz", Type: Scalar(I32)},
	}}
	v := Zero(st)
	v.Elems[0].I = 0x145D
	v.Elems[1].I = 7
	if s := v.String(); s != "{Addr = 5213, Izz = 7}" {
		t.Errorf("struct string = %q", s)
	}
	arr := Zero(ArrayOf(Scalar(U8), 3))
	if s := arr.String(); s != "[0, 0, 0]" {
		t.Errorf("array string = %q", s)
	}
	if StringVal("hi").String() != `"hi"` {
		t.Error("string value format wrong")
	}
}

func TestValueEqualAndClone(t *testing.T) {
	st := &Type{Kind: KStruct, Name: "S", Fields: []Field{{Name: "a", Type: Scalar(I32)}}}
	v1 := Zero(st)
	v1.Elems[0].I = 9
	v2 := v1.Clone()
	if !v1.Equal(v2) {
		t.Error("clone not equal")
	}
	v2.Elems[0].I = 10
	if v1.Equal(v2) {
		t.Error("mutating clone affected original equality")
	}
	if v1.Elems[0].I != 9 {
		t.Error("clone aliases original")
	}
	if Int(U8, 5).Equal(StringVal("5")) {
		t.Error("scalar equal string")
	}
}

// Property: interpreter arithmetic on u8/i32 matches Go semantics.
func TestQuickArithmeticMatchesGo(t *testing.T) {
	prog := MustParse("t.c", `
u8 addu8(u8 a, u8 b) { return a + b; }
i32 mixed(i32 a, i32 b) { return (a * 3 - b) ^ (a & b); }`)
	in := New(prog, newTestEnv())
	f := func(a, b uint8) bool {
		v, err := in.CallFunc("addu8", []Value{Int(U8, int64(a)), Int(U8, int64(b))})
		if err != nil {
			return false
		}
		return v.I == int64(a+b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	g := func(a, b int32) bool {
		v, err := in.CallFunc("mixed", []Value{Int(I32, int64(a)), Int(I32, int64(b))})
		if err != nil {
			return false
		}
		want := int32(a*3-b) ^ (a & b)
		return v.I == int64(want)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: truncation is idempotent and stays in range.
func TestQuickTruncation(t *testing.T) {
	f := func(x int64) bool {
		for _, b := range []BaseType{U8, U16, U32, I8, I16, I32} {
			v := Int(b, x)
			if Int(b, v.I).I != v.I {
				return false
			}
			bits := uint(b.Bits())
			if b.Signed() {
				lo, hi := -(int64(1) << (bits - 1)), int64(1)<<(bits-1)-1
				if v.I < lo || v.I > hi {
					return false
				}
			} else if v.I < 0 || v.I > int64(1)<<bits-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
