package filterc

import (
	"fmt"
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := newLexer("t.c", `u32 x = 0x1F + 42; // comment
/* block
comment */ x <<= 2;`).lexAll()
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		switch tok.kind {
		case tIdent, tPunct:
			texts = append(texts, tok.text)
		case tNumber:
			texts = append(texts, "#")
		case tEOF:
			texts = append(texts, "<eof>")
		}
	}
	want := "u32 x = # + # ; x <<= # ; <eof>"
	if got := strings.Join(texts, " "); got != want {
		t.Errorf("tokens = %q, want %q", got, want)
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := newLexer("t.c", "0 7 0x10 0xff 4294967295").lexAll()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 7, 16, 255, 4294967295}
	for i, w := range want {
		if toks[i].kind != tNumber || toks[i].num != w {
			t.Errorf("token %d = %v, want number %d", i, toks[i], w)
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := newLexer("t.c", `"a\nb\t\"q\\"`).lexAll()
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "a\nb\t\"q\\" {
		t.Errorf("string = %q", toks[0].text)
	}
}

func TestLexErrors(t *testing.T) {
	bad := []string{`"unterminated`, `"bad \z escape"`, "0x", "@", "\"line\nbreak\""}
	for _, src := range bad {
		if _, err := newLexer("t.c", src).lexAll(); err == nil {
			t.Errorf("lexAll(%q) succeeded, want error", src)
		}
	}
}

func TestLexLineNumbers(t *testing.T) {
	toks, err := newLexer("t.c", "a\nb\n\nc").lexAll()
	if err != nil {
		t.Fatal(err)
	}
	wantLines := []int{1, 2, 4}
	for i, w := range wantLines {
		if toks[i].pos.Line != w {
			t.Errorf("token %d line = %d, want %d", i, toks[i].pos.Line, w)
		}
	}
}

func TestParseSimpleFunction(t *testing.T) {
	prog, err := Parse("t.c", `
void work() {
	u32 x = 1;
	x = x + 2;
}`)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Func("work")
	if fn == nil {
		t.Fatal("no work function")
	}
	if fn.Ret.Base != Void || len(fn.Params) != 0 {
		t.Errorf("signature wrong: ret=%v params=%v", fn.Ret, fn.Params)
	}
	if len(fn.Body.Stmts) != 2 {
		t.Errorf("body has %d stmts, want 2", len(fn.Body.Stmts))
	}
}

func TestParseStructAndUse(t *testing.T) {
	prog, err := Parse("t.c", `
struct CbCrMB_t { u32 Addr; u32 InterNotIntra; i32 Izz; };
void work() {
	CbCrMB_t m;
	m.Addr = 0x145D;
}`)
	if err != nil {
		t.Fatal(err)
	}
	st := prog.Structs["CbCrMB_t"]
	if st == nil || len(st.Fields) != 3 {
		t.Fatalf("struct = %+v", st)
	}
	if st.FieldIndex("Izz") != 2 || st.Fields[2].Type.Base != I32 {
		t.Errorf("Izz field wrong: %+v", st.Fields)
	}
}

func TestParseArraysAndControlFlow(t *testing.T) {
	_, err := Parse("t.c", `
u32 sum(u32 n) {
	u32 buf[8];
	u32 s = 0;
	for (u32 i = 0; i < 8; i++) {
		buf[i] = i * n;
	}
	u32 i = 0;
	while (i < 8) {
		if (buf[i] % 2 == 0) { s += buf[i]; } else { s -= 1; }
		i++;
		if (i > 100) break;
	}
	return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParsePedfAccessors(t *testing.T) {
	prog, err := Parse("t.c", `
void work() {
	u32 v = pedf.io.an_input[0];
	pedf.data.count = pedf.data.count + 1;
	pedf.io.an_output[0] = v + pedf.attribute.offset;
}`)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Func("work").Body.Stmts
	decl := body[0].(*DeclStmt)
	ix, ok := decl.Init.(*Index)
	if !ok {
		t.Fatalf("init = %T, want *Index", decl.Init)
	}
	ref := ix.X.(*PedfRef)
	if ref.Space != PedfIO || ref.Name != "an_input" {
		t.Errorf("ref = %+v", ref)
	}
}

func TestParsePaperExcerpt(t *testing.T) {
	// Line 221 of the paper's listing: a dataflow assignment.
	_, err := Parse("the_source.c", `
void work() {
	// push add2dBlock to ipf
	pedf.io.Add2Dblock_ipf_out[0] = pedf.data.block;
}`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseTernaryAndPrecedence(t *testing.T) {
	prog, err := Parse("t.c", `
i32 f(i32 a, i32 b) {
	return a + b * 2 == 10 ? a << 1 | 1 : ~b;
}`)
	if err != nil {
		t.Fatal(err)
	}
	ret := prog.Func("f").Body.Stmts[0].(*ReturnStmt)
	if _, ok := ret.X.(*Cond); !ok {
		t.Errorf("return expr = %T, want *Cond", ret.X)
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"missing brace":      `void f() { u32 x = 1;`,
		"unknown type":       `foo f() {}`,
		"unknown pedf space": `void f() { pedf.bogus.x = 1; }`,
		"bare io ref assign": `void f() { pedf.io.x = 1; }`,
		"assign to literal":  `void f() { 3 = 4; }`,
		"dup function":       `void f() {} void f() {}`,
		"dup struct":         `struct S { u32 a; }; struct S { u32 b; };`,
		"dup field":          `struct S { u32 a; u32 a; };`,
		"array len expr":     `void f() { u32 a[3+4]; }`,
		"inc of literal":     `void f() { 5++; }`,
	}
	for name, src := range bad {
		if _, err := Parse("t.c", src); err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
		}
	}
}

func TestStmtLines(t *testing.T) {
	prog, err := Parse("t.c", `void work() {
	u32 x = 1;
	if (x) {
		x = 2;
	}
	while (x < 10) x++;
}`)
	if err != nil {
		t.Fatal(err)
	}
	lines := prog.StmtLines()
	var got []int
	for _, l := range lines {
		got = append(got, l.Line)
		if l.Func != "work" {
			t.Errorf("stmt line %d in func %q, want work", l.Line, l.Func)
		}
	}
	// decl@2, if@3, assign@4, while@6, x++@6
	want := []int{2, 3, 4, 6, 6}
	if len(got) != len(want) {
		t.Fatalf("stmt lines = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stmt lines = %v, want %v", got, want)
		}
	}
}

func TestMustParsePanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse("t.c", "not valid at all")
}

func TestParseVoidParamList(t *testing.T) {
	prog, err := Parse("t.c", `void f(void) { }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Func("f").Params) != 0 {
		t.Errorf("params = %v, want none", prog.Func("f").Params)
	}
}

func TestTypeStrings(t *testing.T) {
	if Scalar(U16).String() != "U16" {
		t.Error("scalar string wrong")
	}
	if ArrayOf(Scalar(U8), 4).String() != "U8[4]" {
		t.Error("array string wrong")
	}
	st := &Type{Kind: KStruct, Name: "S"}
	if st.String() != "S" {
		t.Error("struct string wrong")
	}
}

// internRuns numbers the runs of TestInternSharesAndBounds: programs
// are interned process-wide, so a repeated run (-count) needs its own
// file names to start from a program that was never compiled.
var internRuns int

// Intern shares one Program per (file, source), compiles it once, never
// caches a parse error, and stays within its bound.
func TestInternSharesAndBounds(t *testing.T) {
	const src = "u32 work() { return 1; }"
	internRuns++
	fileA, fileB := fmt.Sprintf("intern_a%d.c", internRuns), fmt.Sprintf("intern_b%d.c", internRuns)
	a, err := Intern(fileA, src)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := Intern(fileA, src); b != a {
		t.Error("same file and source interned twice")
	}
	if b, _ := Intern(fileB, src); b == a {
		t.Error("different files share a program")
	}
	compiles := CompileTotal()
	for i := 0; i < 3; i++ {
		// The VM is forced: under -tags slowinterp the default engine
		// is the walker, which never compiles.
		in := New(a, nil)
		in.Engine = EngineVM
		if _, err := in.CallFunc("work", nil); err != nil {
			t.Fatal(err)
		}
	}
	if d := CompileTotal() - compiles; d != 1 {
		t.Errorf("3 runs of one program compiled %d times, want 1", d)
	}
	if _, err := Intern("intern_bad.c", "u32 work( {"); err == nil {
		t.Fatal("bad source interned")
	}
	if _, ok := interned.progs[internKey{"intern_bad.c", "u32 work( {"}]; ok {
		t.Error("parse error cached")
	}
	for i := 0; i < internCap+10; i++ {
		if _, err := Intern("intern_fill.c", src+strings.Repeat(" ", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(interned.progs); n > internCap {
		t.Errorf("intern table holds %d programs, bound is %d", n, internCap)
	}
}
