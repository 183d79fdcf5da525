package filterc

import (
	"fmt"
	"testing"
)

// cPromote is the oracle for C's integer promotions and usual arithmetic
// conversions on the subset's types: operands narrower than int promote
// to int, and an unsigned int operand makes both sides unsigned int. It
// returns both operands as they compare, widened to int64.
func cPromote(lb, rb BaseType, a, b int64) (int64, int64) {
	if lb == U32 || rb == U32 {
		return int64(uint32(a)), int64(uint32(b))
	}
	return int64(int32(a)), int64(int32(b))
}

// TestComparisonsMatchC checks every comparison operator on every pair
// of integer types against the C oracle, through the shared kernel, the
// fused compare-and-branch helper and the switch rule. A u32 holding
// 0xFFFFFFFF equals -1, because -1 converts to unsigned int.
func TestComparisonsMatchC(t *testing.T) {
	bases := []BaseType{U8, U16, U32, I8, I16, I32}
	vals := []int64{0, 1, -1, 127, -128, 255, 32767, -32768, 65535, 1 << 31, -(1 << 31), 1<<32 - 1, 12345}
	ops := []struct {
		id   int
		want func(a, b int64) bool
	}{
		{bEq, func(a, b int64) bool { return a == b }},
		{bNe, func(a, b int64) bool { return a != b }},
		{bLt, func(a, b int64) bool { return a < b }},
		{bLe, func(a, b int64) bool { return a <= b }},
		{bGt, func(a, b int64) bool { return a > b }},
		{bGe, func(a, b int64) bool { return a >= b }},
	}
	for _, lb := range bases {
		for _, rb := range bases {
			for _, x := range vals {
				for _, y := range vals {
					l, r := Int(lb, x), Int(rb, y)
					ca, cb := cPromote(lb, rb, l.I, r.I)
					for _, op := range ops {
						want := op.want(ca, cb)
						got, ok := applyBinaryFast(op.id, lb, rb, l.I, r.I)
						if !ok || (got.I != 0) != want || got.Type.Base != Bool {
							t.Fatalf("%s(%d) %s %s(%d): kernel %v, C says %v",
								lb, l.I, binOpNames[op.id], rb, r.I, got, want)
						}
						if compareFast(int32(op.id), lb, rb, l.I, r.I) != want {
							t.Fatalf("%s(%d) %s %s(%d): compareFast disagrees with C",
								lb, l.I, binOpNames[op.id], rb, r.I)
						}
					}
					// switch (l) { case r: } converts the label to l's
					// promoted type.
					label := truncate(promote32(lb), r.I)
					cond := truncate(promote32(lb), l.I)
					if caseMatches(lb, l.I, r.I) != (label == cond) {
						t.Fatalf("switch on %s(%d), case %s(%d): caseMatches disagrees with C", lb, l.I, rb, r.I)
					}
				}
			}
		}
	}
}

// TestUnsignedEqualityOnBothEngines runs u32-against-negative equality
// through every path that compares: the typed kernel, the fused
// compare-and-branch, the value-stack kernel on a pedf.data operand, and
// switch case matching. Both engines must give C's answers.
func TestUnsignedEqualityOnBothEngines(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{`u32 f(u32 a) { u32 x = 0xFFFFFFFF; return (x == -1) * 1000 + (x != -1) * 100 + (x <= -1) * 10 + (x >= -1); }`, 1011},
		{`u32 f(u32 a) { u32 x = 0xFFFFFFFF; u32 n = 0; while (x == -1) { x = 0; n++; } return n; }`, 1},
		{`u32 f(u32 a) { i32 m = -1; u32 x = 0xFFFFFFFF; if (x != m) { return 7; } return 8; }`, 8},
		{`u32 f(u32 a) { pedf.data.d0 = 0xFFFFFFFF; return (pedf.data.d0 == -1) + (pedf.data.d0 != -1) * 10; }`, 1},
		{`u32 f(u32 a) { u32 x = 0xFFFFFFFF; switch (x) { case -1: return 1; default: return 2; } return 3; }`, 1},
		{`u32 f(u32 a) { i32 x = -1; switch (x) { case 0xFFFFFFFF: return 1; default: return 2; } return 3; }`, 1},
		{`u32 f(u32 a) { u8 x = 255; switch (x) { case -1: return 1; default: return 2; } return 3; }`, 2},
	}
	for i, c := range cases {
		prog, err := Parse(fmt.Sprintf("ueq%d.c", i), c.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []Engine{EngineWalker, EngineVM} {
			in := New(prog, newDiffEnv(&diffTrace{}))
			in.Engine = eng
			v, err := in.CallFunc("f", []Value{Int(U32, 0)})
			if err != nil || v.I != c.want {
				t.Errorf("case %d on engine %d: got %v, %v; want %d\n%s", i, eng, v, err, c.want, c.src)
			}
		}
		diffProgram(t, fmt.Sprintf("ueq%d.c", i), c.src, 20000)
	}
}
