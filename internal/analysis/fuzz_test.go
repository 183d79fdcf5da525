package analysis

import (
	"testing"

	"dfdbg/internal/filterc"
)

// FuzzCheckProgram asserts the filterc analyzers never crash on any
// program the parser accepts, with and without an interface context.
func FuzzCheckProgram(f *testing.F) {
	seeds := []string{
		"void work() { u32 v = pedf.io.in[0]; pedf.io.out[0] = v; }",
		"u32 work() { return 0; }",
		"void work() { while (1) { break; } }",
		"void work() { u32 x; pedf.io.out[x] = x++; }",
		"struct S { u32 a; }; void work() { S s; s.a = 1; pedf.io.out[0] = s.a; }",
		"void work() { if (pedf.io.in[0] ? 1 : 0) { return; } return; pedf.io.out[0] = 1; }",
		"void helper(u32 a) { pedf.io.out[0] = a; } void work() { helper(min(1, 2)); }",
		"u32 work() { switch (pedf.io.in[0]) { case 1: return 1; default: break; } return 0; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	ctx := testCtx()
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := filterc.Parse("fuzz.c", src)
		if err != nil {
			return // parse errors are out of scope here
		}
		CheckProgram(prog, ctx)
		CheckProgram(prog, nil)
	})
}
