package absint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dfdbg/internal/filterc"
)

func mustProg(t *testing.T, src string) *filterc.Program {
	t.Helper()
	p, err := filterc.Parse("test.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func simpleCtx() *Context {
	i32 := filterc.Scalar(filterc.I32)
	return &Context{
		Actor: "a",
		Ins:   []IfaceDecl{{Name: "in", Type: i32}},
		Outs:  []IfaceDecl{{Name: "out", Type: i32}},
	}
}

func traceContains(c *Class, sub string) bool {
	for _, ln := range c.Trace {
		if strings.Contains(ln, sub) {
			return true
		}
	}
	return false
}

func TestClassifySDFUniversal(t *testing.T) {
	prog := mustProg(t, `
void work() {
  i32 v = pedf.io.in[0];
  pedf.io.out[0] = v * 2;
}`)
	c := Classify(prog, simpleCtx())
	if c.Verdict != VerdictSDF || !c.Universal {
		t.Fatalf("want universal SDF, got %+v", c)
	}
	if got := c.RateOf("in"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("in rate = %v", got)
	}
	if got := c.RateOf("out"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("out rate = %v", got)
	}
}

func TestClassifySDFConstantLoop(t *testing.T) {
	prog := mustProg(t, `
void work() {
  for (i32 i = 0; i < 16; i++) {
    pedf.io.out[i] = pedf.io.in[i] + 1;
  }
}`)
	c := Classify(prog, simpleCtx())
	if c.Verdict != VerdictSDF || !c.Universal {
		t.Fatalf("want universal SDF, got %+v", c)
	}
	if got := c.RateOf("out"); len(got) != 1 || got[0] != 16 {
		t.Fatalf("out rate = %v", got)
	}
}

func TestClassifySDFBranchesAgreeOnRates(t *testing.T) {
	// Data-dependent branch, but both arms move exactly one token.
	prog := mustProg(t, `
void work() {
  i32 v = pedf.io.in[0];
  if (v > 0) { pedf.io.out[0] = v; } else { pedf.io.out[0] = -v; }
}`)
	c := Classify(prog, simpleCtx())
	if c.Verdict != VerdictSDF || !c.Universal {
		t.Fatalf("want universal SDF, got %+v", c)
	}
}

func TestClassifyCSDFCounter(t *testing.T) {
	// Phase counter in pedf.data: 1 token, then 2, then repeat.
	i32 := filterc.Scalar(filterc.I32)
	ctx := simpleCtx()
	ctx.Data = []VarDecl{{Name: "k", Type: i32}}
	prog := mustProg(t, `
void work() {
  if (pedf.data.k == 0) {
    pedf.io.out[0] = pedf.io.in[0];
    pedf.data.k = 1;
  } else {
    pedf.io.out[0] = pedf.io.in[0];
    pedf.io.out[1] = pedf.io.in[0];
    pedf.data.k = 0;
  }
}`)
	c := Classify(prog, ctx)
	if c.Verdict != VerdictCSDF || c.Period != 2 {
		t.Fatalf("want CSDF period 2, got %+v", c)
	}
	out := c.RateOf("out")
	if len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Fatalf("out pattern = %v", out)
	}
	in := c.RateOf("in")
	if len(in) != 2 || in[0] != 1 || in[1] != 1 {
		t.Fatalf("in pattern = %v", in)
	}
	if c.Universal {
		t.Fatalf("CSDF verdict must not claim universality: %+v", c)
	}
}

func TestClassifyDynamicTokenDependentRate(t *testing.T) {
	prog := mustProg(t, `
void work() {
  i32 n = pedf.io.in[0];
  if (n > 0) {
    pedf.io.out[0] = n;
    pedf.io.out[1] = n;
  } else {
    pedf.io.out[0] = n;
  }
}`)
	c := Classify(prog, simpleCtx())
	if c.Verdict != VerdictDynamic {
		t.Fatalf("want dynamic, got %+v", c)
	}
	if len(c.Trace) == 0 {
		t.Fatalf("dynamic verdict must carry a trace")
	}
	if !traceContains(c, "rate of output out varies") {
		t.Fatalf("trace should name the varying port: %v", c.Trace)
	}
	if !traceContains(c, "branch") && !traceContains(c, "token value") {
		t.Fatalf("trace should blame the branch or the token read: %v", c.Trace)
	}
}

func TestClassifySDFFromInitialStateOnly(t *testing.T) {
	// Rate depends on an attribute: top-state pass fails, but from the
	// declared initial value (gain=1) the rate is provably constant.
	i32 := filterc.Scalar(filterc.I32)
	one := filterc.Int(filterc.I32, 1)
	ctx := simpleCtx()
	ctx.Attrs = []VarDecl{{Name: "gain", Type: i32, Init: &one}}
	prog := mustProg(t, `
void work() {
  for (i32 i = 0; i < pedf.attribute.gain; i++) {
    pedf.io.out[i] = pedf.io.in[i];
  }
}`)
	c := Classify(prog, ctx)
	if c.Verdict != VerdictSDF {
		t.Fatalf("want SDF, got %+v", c)
	}
	if c.Universal {
		t.Fatalf("attr-dependent rate must not be universal: %+v", c)
	}
	if got := c.RateOf("out"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("out rate = %v", got)
	}
}

func TestClassifyDynamicStateDiverges(t *testing.T) {
	// Persistent state absorbs a token value: never repeats concretely.
	i32 := filterc.Scalar(filterc.I32)
	ctx := simpleCtx()
	ctx.Data = []VarDecl{{Name: "acc", Type: i32}}
	prog := mustProg(t, `
void work() {
  pedf.data.acc = pedf.data.acc + pedf.io.in[0];
  i32 n = pedf.data.acc;
  if (n > 0) { pedf.io.out[0] = n; pedf.io.out[1] = n; }
  else { pedf.io.out[0] = n; }
}`)
	c := Classify(prog, ctx)
	if c.Verdict != VerdictDynamic {
		t.Fatalf("want dynamic, got %+v", c)
	}
	if len(c.Trace) == 0 {
		t.Fatalf("dynamic verdict must carry a trace")
	}
}

func TestClassifyHelperFunctions(t *testing.T) {
	prog := mustProg(t, `
i32 grab(i32 i) { return pedf.io.in[i]; }
void emit(i32 i, i32 v) { pedf.io.out[i] = v; }
void work() {
  emit(0, grab(0) + grab(1));
}`)
	c := Classify(prog, simpleCtx())
	if c.Verdict != VerdictSDF || !c.Universal {
		t.Fatalf("want universal SDF, got %+v", c)
	}
	if got := c.RateOf("in"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("in rate = %v", got)
	}
}

func TestClassifyNilProgramIsDynamic(t *testing.T) {
	c := Classify(nil, simpleCtx())
	if c.Verdict != VerdictDynamic || len(c.Trace) == 0 {
		t.Fatalf("nil program: %+v", c)
	}
}

func TestClassifyUnboundedLoopTerminates(t *testing.T) {
	// Abstract token value drives the loop bound: the interpreter must
	// widen (or hit its budget) and report dynamic, not hang.
	prog := mustProg(t, `
void work() {
  i32 n = pedf.io.in[0];
  for (i32 i = 0; i < n; i++) {
    pedf.io.out[i] = i;
  }
}`)
	c := Classify(prog, simpleCtx())
	if c.Verdict != VerdictDynamic {
		t.Fatalf("want dynamic, got %+v", c)
	}
	if len(c.Trace) == 0 {
		t.Fatalf("dynamic verdict must carry a trace")
	}
}

// TestClassifyUniversalRates pins Class.Rates, the per-port rates pass A
// proves for every state, on each kind of verdict: a port keeps its rate
// when the actor as a whole is CSDF or dynamic, a port whose count
// varies with state or token values is RateUnknown, and the rates stay
// out of the class's JSON.
func TestClassifyUniversalRates(t *testing.T) {
	i32 := filterc.Scalar(filterc.I32)
	one := filterc.Int(filterc.I32, 1)
	counter := simpleCtx()
	counter.Data = []VarDecl{{Name: "k", Type: i32}}
	gain := simpleCtx()
	gain.Attrs = []VarDecl{{Name: "gain", Type: i32, Init: &one}}
	cases := []struct {
		name    string
		ctx     *Context
		src     string
		verdict Verdict
		in, out int
	}{
		{"universal SDF", simpleCtx(),
			`void work() { pedf.io.out[0] = pedf.io.in[0] + pedf.io.in[1]; }`,
			VerdictSDF, 2, 1},
		{"SDF from the initial attribute only", gain,
			`void work() { i32 v = pedf.io.in[0]; for (i32 i = 0; i < pedf.attribute.gain; i++) { pedf.io.out[i] = v; } }`,
			VerdictSDF, 1, RateUnknown},
		{"CSDF on a state counter", counter,
			`void work() {
  pedf.io.out[0] = pedf.io.in[0];
  if (pedf.data.k == 0) { pedf.io.out[1] = 0; pedf.data.k = 1; } else { pedf.data.k = 0; }
}`,
			VerdictCSDF, 1, RateUnknown},
		{"dynamic on a token value", simpleCtx(),
			`void work() { pedf.io.out[0] = pedf.io.in[pedf.io.in[0] & 3]; }`,
			VerdictDynamic, RateUnknown, 1},
		{"interpreter gives up", simpleCtx(),
			`i32 r() { return r() + pedf.io.in[0]; } void work() { pedf.io.out[0] = r(); }`,
			VerdictDynamic, RateUnknown, RateUnknown},
	}
	for _, tc := range cases {
		c := Classify(mustProg(t, tc.src), tc.ctx)
		if c.Verdict != tc.verdict {
			t.Errorf("%s: verdict %s, want %s (%v)", tc.name, c.Verdict, tc.verdict, c.Trace)
		}
		if in, out := c.Rate("in"), c.Rate("out"); in != tc.in || out != tc.out {
			t.Errorf("%s: rates in=%d out=%d, want in=%d out=%d", tc.name, in, out, tc.in, tc.out)
		}
		js, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(js, []byte(`"Rates"`)) || bytes.Contains(js, []byte(`"rates"`)) {
			t.Errorf("%s: universal rates leak into the class JSON: %s", tc.name, js)
		}
	}
}
