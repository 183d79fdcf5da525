package analysis

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfdbg/internal/filterc"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testCtx is the standard ADL-side context the filterc corpus is checked
// against: two scalar interfaces, two struct interfaces, one private
// datum and one attribute.
func testCtx() *ProgramContext {
	mb := &filterc.Type{Kind: filterc.KStruct, Name: "MB_t",
		Fields: []filterc.Field{{Name: "addr", Type: filterc.Scalar(filterc.U32)}}}
	return &ProgramContext{
		Ifaces: []Iface{
			{Name: "in", Dir: "input", Type: filterc.Scalar(filterc.U32)},
			{Name: "mb_in", Dir: "input", Type: mb},
			{Name: "out", Dir: "output", Type: filterc.Scalar(filterc.U32)},
			{Name: "mb_out", Dir: "output", Type: mb},
		},
		Data:  map[string]*filterc.Type{"acc": filterc.Scalar(filterc.U32)},
		Attrs: map[string]*filterc.Type{"gain": filterc.Scalar(filterc.U32)},
	}
}

// ctrlCtx is the context for controller corpus entries.
func ctrlCtx() *ProgramContext {
	return &ProgramContext{
		Controller: true,
		Ifaces:     []Iface{{Name: "cmd_out", Dir: "output", Type: filterc.Scalar(filterc.U32)}},
		Data:       map[string]*filterc.Type{},
		Attrs:      map[string]*filterc.Type{},
	}
}

const corpusDir = "../../testdata/analysis/filterc"

func checkCorpusFile(t *testing.T, name string) *Report {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(corpusDir, name))
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	prog, err := filterc.Parse(name, string(src))
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	ctx := testCtx()
	if strings.HasPrefix(name, "controller") {
		ctx = ctrlCtx()
	}
	return CheckProgram(prog, ctx)
}

func compareGolden(t *testing.T, goldenPath string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("golden mismatch for %s:\n--- got ---\n%s\n--- want ---\n%s", goldenPath, got, want)
	}
}

// TestFiltercGoldens checks every corpus source against its expected
// diagnostic output.
func TestFiltercGoldens(t *testing.T) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("read corpus dir: %v", err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			rep := checkCorpusFile(t, name)
			var buf bytes.Buffer
			rep.WriteText(&buf)
			compareGolden(t, filepath.Join(corpusDir, strings.TrimSuffix(name, ".c")+".golden"), buf.Bytes())
		})
	}
}

// TestFiltercJSONGolden pins the JSON envelope for one buggy program.
func TestFiltercJSONGolden(t *testing.T) {
	rep := checkCorpusFile(t, "bad_call.c")
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	compareGolden(t, filepath.Join(corpusDir, "bad_call.json"), buf.Bytes())
}

// TestCleanSourceHasNoDiagnostics guards the corpus' positive case.
func TestCleanSourceHasNoDiagnostics(t *testing.T) {
	for _, name := range []string{"clean.c", "controller.c"} {
		if rep := checkCorpusFile(t, name); len(rep.Diags) != 0 {
			t.Errorf("%s: expected no diagnostics, got %v", name, rep.Diags)
		}
	}
}

// TestEveryCodeExercisedByGoldens asserts the golden corpus (filterc and
// graph goldens together) mentions every registered diagnostic code.
func TestEveryCodeExercisedByGoldens(t *testing.T) {
	var all strings.Builder
	root := "../../testdata/analysis"
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || (!strings.HasSuffix(path, ".golden") && !strings.HasSuffix(path, ".json")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		all.Write(b)
		return nil
	})
	if err != nil {
		t.Fatalf("walk goldens: %v", err)
	}
	for code := range Codes {
		if !strings.Contains(all.String(), code) {
			t.Errorf("diagnostic code %s is not exercised by any golden file", code)
		}
	}
}

// TestCheckProgramNilInputs must not panic.
func TestCheckProgramNilInputs(t *testing.T) {
	if rep := CheckProgram(nil, nil); len(rep.Diags) != 0 {
		t.Errorf("nil program: expected empty report")
	}
	prog, err := filterc.Parse("x.c", "void work() { u32 v = 1; pedf.io.o[0] = v; }")
	if err != nil {
		t.Fatal(err)
	}
	// Nil context: io naming/direction checks are skipped entirely.
	if rep := CheckProgram(prog, nil); rep.HasErrors() {
		t.Errorf("nil context: expected no errors, got %v", rep.Diags)
	}
}

func mustParse(t *testing.T, src string) *filterc.Program {
	t.Helper()
	prog, err := filterc.Parse("test.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func TestConstExpr(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(1 << 4) | 1", 17},
		{"10 / 3", 3},
		{"1 < 2 ? 5 : 9", 5},
		{"!0", 1},
		{"-(3)", -3},
	}
	for _, c := range cases {
		prog := mustParse(t, "void work() { u32 x = "+c.src+"; pedf.io.o[0] = x; }")
		decl := prog.Func("work").Body.Stmts[0].(*filterc.DeclStmt)
		got, ok := ConstExpr(decl.Init)
		if !ok || got != c.want {
			t.Errorf("ConstExpr(%q) = %d,%v want %d", c.src, got, ok, c.want)
		}
	}
	// Division by zero is not constant-foldable.
	prog := mustParse(t, "void work() { u32 x = 1 / 0; pedf.io.o[0] = x; }")
	decl := prog.Func("work").Body.Stmts[0].(*filterc.DeclStmt)
	if _, ok := ConstExpr(decl.Init); ok {
		t.Errorf("1/0 should not fold")
	}
}
