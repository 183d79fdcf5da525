package analysis

import (
	"testing"

	"dfdbg/internal/analysis/absint"
	"dfdbg/internal/filterc"
)

// The port rates the graph checks read come from the abstract
// interpreter's universal pass (absint pass A): a rate is known only when
// every firing from every data/attribute state moves that many tokens.
// These tests pin that per-port rate on small programs.

// universal classifies src as an actor with i32 input and output ports
// of the given names and returns its class.
func universal(t *testing.T, src string, ins, outs []string) *absint.Class {
	t.Helper()
	var prog *filterc.Program
	if src != "" {
		prog = mustParse(t, src)
	}
	i32 := filterc.Scalar(filterc.I32)
	ctx := &absint.Context{Actor: "a"}
	for _, n := range ins {
		ctx.Ins = append(ctx.Ins, absint.IfaceDecl{Name: n, Type: i32})
	}
	for _, n := range outs {
		ctx.Outs = append(ctx.Outs, absint.IfaceDecl{Name: n, Type: i32})
	}
	return absint.Classify(prog, ctx)
}

func wantRates(t *testing.T, what string, c *absint.Class, want map[string]int) {
	t.Helper()
	for port, r := range want {
		if got := c.Rate(port); got != r {
			t.Errorf("%s: rate of %s = %d, want %d (verdict %s, trace %v)", what, port, got, r, c.Verdict, c.Trace)
		}
	}
}

func TestInferRatesStraightLine(t *testing.T) {
	c := universal(t, `
void work() {
	u32 a = pedf.io.i[0];
	u32 b = pedf.io.i[1];
	pedf.io.o[0] = a + b;
}`, []string{"i"}, []string{"o"})
	wantRates(t, "straight line", c, map[string]int{"i": 2, "o": 1})
}

// Token-dependent accesses stay unknown. A constant-bound loop and a
// write through a helper are proven precisely: the interpreter runs
// them, where a syntactic walk had to give up. A write at a
// token-dependent index is proven too: the sequential write protocol
// faults any firing whose first write is not at index 0.
func TestInferRatesDynamicAccess(t *testing.T) {
	cases := []struct {
		name, src string
		port      string
		want      int
	}{
		{"conditional", `void work() { if (pedf.io.i[0] > 0) { pedf.io.o[0] = 1; } }`, "o", RateUnknown},
		{"computed read", `void work() { u32 k = pedf.io.i[0]; pedf.io.o[0] = pedf.io.i[k]; }`, "i", RateUnknown},
		{"loop", `void work() { u32 k = 0; while (k < 4) { pedf.io.o[k] = k; k = k + 1; } }`, "o", 4},
		{"helper", `void put() { pedf.io.o[0] = 1; } void work() { put(); }`, "o", 1},
		{"computed write", `void work() { u32 k = pedf.io.i[0]; pedf.io.o[k] = 0; }`, "o", 1},
	}
	for _, tc := range cases {
		c := universal(t, tc.src, []string{"i"}, []string{"o"})
		wantRates(t, tc.name, c, map[string]int{tc.port: tc.want})
	}
}

// TestInferRatesDeepHelperChainPrecise: constant-index reads keep their
// precise rate through a 3-hop helper chain, and so does a write in a
// helper (which a syntactic walk could not prove, since a helper's
// write indices depend on how often it is called).
func TestInferRatesDeepHelperChainPrecise(t *testing.T) {
	c := universal(t, `
u32 c() { return pedf.io.i[2]; }
u32 b() { return c() + pedf.io.i[1]; }
u32 a() { return b() + pedf.io.i[0]; }
void work() {
	pedf.io.o[0] = a();
	put();
}
void put() { pedf.io.aux[0] = 7; }`, []string{"i"}, []string{"o", "aux"})
	wantRates(t, "3-hop chain", c, map[string]int{"i": 3, "o": 1, "aux": 1})
}

// An untouched port has rate 0.
func TestInferRatesUntouchedInterfaceAbsent(t *testing.T) {
	c := universal(t, `void work() { pedf.io.o[0] = 1; }`, []string{"i"}, []string{"o"})
	wantRates(t, "untouched", c, map[string]int{"i": 0, "o": 1})
}

// Without bytecode (a native Go actor) no rate is known.
func TestInferRatesNilProgram(t *testing.T) {
	c := universal(t, "", []string{"i"}, []string{"o"})
	wantRates(t, "nil program", c, map[string]int{"i": RateUnknown, "o": RateUnknown})
}

// TestTransitiveHelperRates covers helper-chain transitivity: a chain
// work -> a -> b where only b touches io surfaces b's accesses at the
// entry. A conditional hop that decides how many tokens are read leaves
// the rate unknown; one that cannot change the highest index read does
// not. A recursive helper makes the interpreter give up: unknown.
func TestTransitiveHelperRates(t *testing.T) {
	c := universal(t, `
u32 b() {
    return pedf.io.in[0];
}
u32 a() {
    return b();
}
void work() {
    u32 x = a();
    pedf.io.out[0] = x;
}
`, []string{"in"}, []string{"out"})
	wantRates(t, "chain", c, map[string]int{"in": 1, "out": 1})

	rec := universal(t, `
u32 r() { return r() + pedf.io.in[0]; }
void work() { pedf.io.out[0] = r(); }
`, []string{"in"}, []string{"out"})
	wantRates(t, "recursive", rec, map[string]int{"in": RateUnknown, "out": RateUnknown})

	// b reads in[1] only when the token in[0] says so: 1 or 2 tokens.
	cond := universal(t, `
u32 b() { return pedf.io.in[1]; }
u32 a(u32 c) {
    if (c > 0) { return b(); }
    return 0;
}
void work() { pedf.io.out[0] = a(pedf.io.in[0]); }
`, []string{"in"}, []string{"out"})
	wantRates(t, "conditional hop", cond, map[string]int{"in": RateUnknown, "out": 1})

	// Here in[1] is always read first, so the conditional in[0] cannot
	// change the rate: 2 tokens on every path.
	cond2 := universal(t, `
u32 b() { return pedf.io.in[0]; }
u32 a(u32 c) {
    if (c > 0) { return b(); }
    return 0;
}
void work() { pedf.io.out[0] = a(pedf.io.in[1]); }
`, []string{"in"}, []string{"out"})
	wantRates(t, "conditional hop below the highest index", cond2, map[string]int{"in": 2, "out": 1})
}
