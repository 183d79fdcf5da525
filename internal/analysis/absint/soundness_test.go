package absint

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dfdbg/internal/filterc"
)

// recEnv is a concrete filterc environment that records the per-firing
// token rates a program actually exhibits: reads and writes follow the
// runtime's counting protocol (rate = highest accessed index + 1), token
// values are drawn from a seeded stream, and data/attribute state
// persists across firings exactly like a filter instance.
type recEnv struct {
	r     *rand.Rand
	data  map[string]*filterc.Value
	attrs map[string]*filterc.Value
	maxRd map[string]int64
	maxWr map[string]int64
}

func newRecEnv(seed int64) *recEnv {
	return &recEnv{
		r:     rand.New(rand.NewSource(seed)),
		data:  map[string]*filterc.Value{},
		attrs: map[string]*filterc.Value{},
	}
}

// beginFiring resets the per-firing rate counters.
func (e *recEnv) beginFiring() {
	e.maxRd = map[string]int64{}
	e.maxWr = map[string]int64{}
}

func bump(m map[string]int64, name string, idx int64) {
	if cur, ok := m[name]; !ok || idx+1 > cur {
		m[name] = idx + 1
	}
}

func (e *recEnv) IORead(iface string, idx int64) (filterc.Value, error) {
	bump(e.maxRd, iface, idx)
	return filterc.Int(filterc.I32, int64(e.r.Intn(17))), nil
}

func (e *recEnv) IOWrite(iface string, idx int64, v filterc.Value) error {
	bump(e.maxWr, iface, idx)
	return nil
}

func (e *recEnv) DataRef(name string) (*filterc.Value, error) {
	v, ok := e.data[name]
	if !ok {
		return nil, fmt.Errorf("unknown data %q", name)
	}
	return v, nil
}

func (e *recEnv) AttrRef(name string) (*filterc.Value, error) {
	v, ok := e.attrs[name]
	if !ok {
		return nil, fmt.Errorf("unknown attribute %q", name)
	}
	return v, nil
}

func (e *recEnv) Intrinsic(name string, args []filterc.Value) (filterc.Value, bool, error) {
	return filterc.Value{}, false, nil
}

// genProgram builds a random but well-formed filterc work() from
// parameterized statement templates: unconditional constant-index reads,
// constant-bound read loops, sequential writes, periodic state updates,
// state-dependent branches (CSDF material) and token-dependent branches
// (dynamic material). Writes stay top-level and sequential so the only
// sources of dynamism are the ones the classifier is supposed to call.
func genProgram(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString("void work() {\n  i32 acc = 0;\n")
	writeIdx := 0
	nstmt := 2 + r.Intn(4)
	for s := 0; s < nstmt; s++ {
		switch r.Intn(6) {
		case 0: // constant-index read
			fmt.Fprintf(&b, "  acc = acc + pedf.io.in[%d];\n", r.Intn(4))
		case 1: // constant-bound read loop
			n := 2 + r.Intn(4)
			fmt.Fprintf(&b, "  for (i32 i%d = 0; i%d < %d; i%d++) { acc = acc + pedf.io.in[i%d]; }\n",
				s, s, n, s, s)
		case 2: // sequential write
			fmt.Fprintf(&b, "  pedf.io.out[%d] = acc + %d;\n", writeIdx, r.Intn(9))
			writeIdx++
		case 3: // periodic state update
			fmt.Fprintf(&b, "  pedf.data.s = (pedf.data.s + 1) %% %d;\n", 2+r.Intn(3))
		case 4: // state-dependent read (phase-varying rates)
			fmt.Fprintf(&b, "  if (pedf.data.s == %d) { acc = acc + pedf.io.in[%d]; }\n",
				r.Intn(3), 2+r.Intn(6))
		case 5: // token-dependent read (dynamic rates)
			fmt.Fprintf(&b, "  if (pedf.io.in[0] > %d) { acc = acc + pedf.io.in[%d]; }\n",
				r.Intn(8), 1+r.Intn(6))
		}
	}
	if writeIdx == 0 {
		b.WriteString("  pedf.io.out[0] = acc;\n")
	}
	b.WriteString("}\n")
	return b.String()
}

func soundCtx() *Context {
	i32 := filterc.Scalar(filterc.I32)
	zero := filterc.Int(filterc.I32, 0)
	return &Context{
		Actor: "rnd",
		Ins:   []IfaceDecl{{Name: "in", Type: i32}},
		Outs:  []IfaceDecl{{Name: "out", Type: i32}},
		Data:  []VarDecl{{Name: "s", Type: i32, Init: &zero}},
	}
}

// TestClassifySoundnessRandomPrograms is the soundness gate of the
// classifier: for randomly generated programs, 1000 concretely executed
// firings check every verdict. On an SDF/CSDF actor the observed rate of
// firing n on every port must equal the inferred pattern's phase n mod P
// (ports the classifier calls untouched must stay untouched). On every
// actor, dynamic ones included, each known universal per-port rate must
// equal the observed rate of every firing: soundCtx's out port stays
// constant even when the in port's rate depends on token values.
// Dynamic verdicts must always carry a non-empty explanation trace.
func TestClassifySoundnessRandomPrograms(t *testing.T) {
	const firings = 1000
	var static, dynamic, dynamicKnown int
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := genProgram(r)
		prog, err := filterc.Parse("rnd.c", src)
		if err != nil {
			t.Fatalf("seed %d: generated program does not parse: %v\n%s", seed, err, src)
		}
		ctx := soundCtx()
		c := Classify(prog, ctx)
		if c.Static() {
			static++
		} else {
			dynamic++
			if len(c.Trace) == 0 {
				t.Errorf("seed %d: dynamic verdict without a trace\n%s", seed, src)
			}
			if len(c.Rates) > 0 {
				dynamicKnown++
			}
		}

		env := newRecEnv(seed * 7919)
		for _, d := range ctx.Data {
			v := d.Init.Clone()
			env.data[d.Name] = &v
		}
		in := filterc.New(prog, env)
		for n := 0; n < firings; n++ {
			env.beginFiring()
			if _, err := in.CallFunc("work", nil); err != nil {
				t.Fatalf("seed %d firing %d: concrete execution failed: %v\n%s", seed, n, err, src)
			}
			check := func(dir string, ifaces []IfaceDecl, got map[string]int64) {
				for _, ifc := range ifaces {
					if r := c.Rate(ifc.Name); r != RateUnknown && got[ifc.Name] != int64(r) {
						t.Fatalf("seed %d firing %d: %s observed %s rate %d, universal rate %d (verdict %s)\n%s",
							seed, n, ifc.Name, dir, got[ifc.Name], r, c.Verdict, src)
					}
					if !c.Static() {
						continue
					}
					pat := c.RateOf(ifc.Name)
					want := int64(0)
					if len(pat) > 0 {
						want = int64(pat[n%len(pat)])
					}
					if got[ifc.Name] != want {
						t.Fatalf("seed %d firing %d: %s observed %s rate %d, classifier inferred %d (pattern %v, verdict %s)\n%s",
							seed, n, ifc.Name, dir, got[ifc.Name], want, pat, c.Verdict, src)
					}
				}
			}
			check("read", ctx.Ins, env.maxRd)
			check("write", ctx.Outs, env.maxWr)
		}
	}
	// The generator must exercise both sides of the verdict space, and
	// dynamic actors with a known port rate, or the differential proves
	// nothing.
	if static == 0 || dynamic == 0 || dynamicKnown == 0 {
		t.Fatalf("degenerate sample: %d static, %d dynamic verdicts, %d dynamic with a known rate",
			static, dynamic, dynamicKnown)
	}
}

// FuzzClassify feeds arbitrary source to the parser and, when it parses,
// runs the classifier: it must never panic, and a dynamic verdict must
// always explain itself.
func FuzzClassify(f *testing.F) {
	f.Add("void work() { pedf.io.out[0] = pedf.io.in[0]; }")
	f.Add("void work() { if (pedf.io.in[0] > 3) { pedf.io.out[0] = 1; } }")
	f.Add("void work() { pedf.data.s = (pedf.data.s + 1) % 3; pedf.io.out[0] = pedf.data.s; }")
	f.Add("void work() { for (i32 i = 0; i < 4; i++) { pedf.io.out[i] = pedf.io.in[i]; } }")
	f.Add("u32 g() { return pedf.io.in[1]; } void work() { pedf.io.out[0] = g(); }")
	f.Add("void work() { while (1) { } }")
	f.Add("void work() { i32 x = 1 / 0; pedf.io.out[0] = x; }")
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 8; i++ {
		f.Add(genProgram(r))
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := filterc.Parse("fuzz.c", src)
		if err != nil {
			return
		}
		c := Classify(prog, soundCtx())
		if c == nil {
			t.Fatal("Classify returned nil")
		}
		if c.Verdict == VerdictDynamic && len(c.Trace) == 0 {
			t.Errorf("dynamic verdict without a trace:\n%s", src)
		}
	})
}
