package absint

import (
	"fmt"
	"sort"
	"strings"

	"dfdbg/internal/filterc"
)

// MaxFirings bounds the cyclic-pattern search of pass B: if the
// persistent state does not revisit a previous value within this many
// abstract firings, the actor is reported dynamic.
const MaxFirings = 64

// IfaceDecl is one declared io interface of the actor.
type IfaceDecl struct {
	Name string
	Type *filterc.Type
}

// VarDecl is one declared pedf.data / pedf.attr variable with its
// elaborated initial value (nil means the type's zero value).
type VarDecl struct {
	Name string
	Type *filterc.Type
	Init *filterc.Value
}

// Context describes the ADL-side environment of one actor.
type Context struct {
	Actor      string
	Controller bool
	Ins        []IfaceDecl
	Outs       []IfaceDecl
	Data       []VarDecl
	Attrs      []VarDecl
}

// Verdict is the dataflow classification of one actor.
type Verdict string

const (
	// VerdictSDF: every firing consumes/produces the same token counts.
	VerdictSDF Verdict = "SDF"
	// VerdictCSDF: token counts follow a fixed cyclic pattern.
	VerdictCSDF Verdict = "CSDF"
	// VerdictDynamic: token counts depend on data.
	VerdictDynamic Verdict = "dynamic"
)

// RateUnknown is the universal rate of a port whose per-firing token
// count cannot be proven constant: it varies with token values or
// persistent state, or the interpreter gave up.
const RateUnknown = -1

// PortRates is the inferred per-phase rate pattern of one port.
type PortRates struct {
	Port    string `json:"port"`
	Dir     string `json:"dir"` // "input" or "output"
	Pattern []int  `json:"pattern"`
}

// Class is the classification result for one actor.
type Class struct {
	Actor     string      `json:"actor"`
	Verdict   Verdict     `json:"verdict"`
	Period    int         `json:"period,omitempty"` // phases per cycle (SDF: 1)
	Ports     []PortRates `json:"ports,omitempty"`
	Universal bool        `json:"universal,omitempty"` // verdict holds for any data/attr state
	Trace     []string    `json:"trace,omitempty"`     // explanation, most direct reason first
	// Rates holds the ports whose token count pass A proved constant
	// over every exit path from the all-top state: each firing from any
	// state moves exactly that many tokens, whatever the verdict. A
	// port absent from it has RateUnknown (see Rate).
	Rates map[string]int `json:"-"`
}

// Rate returns a port's universal per-firing token rate, or
// RateUnknown. Unknown, never wrong: the graph checks read it.
func (c *Class) Rate(port string) int {
	if r, ok := c.Rates[port]; ok {
		return r
	}
	return RateUnknown
}

// RateOf returns the per-phase pattern for a port, or nil.
func (c *Class) RateOf(port string) []int {
	for _, p := range c.Ports {
		if p.Port == port {
			return p.Pattern
		}
	}
	return nil
}

// Static reports whether the verdict admits static scheduling.
func (c *Class) Static() bool {
	return c.Verdict == VerdictSDF || c.Verdict == VerdictCSDF
}

func dynamic(ctx *Context, trace ...string) *Class {
	if len(trace) == 0 {
		trace = []string{"work() could not be proven rate-static"}
	}
	return &Class{Actor: ctx.Actor, Verdict: VerdictDynamic, Trace: trace}
}

// Classify runs the two-pass abstract classification of one actor.
//
// Pass A ("universal") runs work() once with every persistent datum and
// attribute set to the top of its type: if all token rates still come
// out as singletons, the actor is SDF for any state the debugger could
// ever put it in. Pass B ("cyclic") starts from the elaborated initial
// state, fires repeatedly, and looks for a repetition of the persistent
// state; equal rates everywhere give SDF, a repeating pattern gives
// CSDF. Anything else is dynamic, with a trace naming the instruction
// that broke staticness. Whatever the verdict, the ports whose counts
// pass A proved singletons are kept in Class.Rates: they are the
// per-port rates the graph checks read.
func Classify(prog *filterc.Program, ctx *Context) *Class {
	if ctx == nil {
		ctx = &Context{}
	}
	if prog == nil {
		return dynamic(ctx, "work() is native Go: no filterc bytecode to analyze")
	}
	pb := filterc.Bytecode(prog)
	wf := pb.ByName["work"]
	if wf == nil {
		return dynamic(ctx, "program has no work() function")
	}

	// Pass A: universal SDF proof.
	eA := newEngine(pb, ctx)
	gA := &gstate{
		data:   make(map[string]aval),
		attrs:  make(map[string]aval),
		reads:  make(map[string]cnt),
		writes: make(map[string]cnt),
	}
	for _, d := range ctx.Data {
		gA.data[d.Name] = topOf(d.Type, mkCause(filterc.Pos{}, fmt.Sprintf("pedf.data.%s (any persistent state)", d.Name), nil))
	}
	for _, d := range ctx.Attrs {
		gA.attrs[d.Name] = topOf(d.Type, mkCause(filterc.Pos{}, fmt.Sprintf("pedf.attr.%s (attributes are debugger-writable)", d.Name), nil))
	}
	var passAReason []string
	var universal map[string]int
	if rets := eA.runFunc(wf, nil, gA, nil); eA.fail == nil && len(rets) > 0 {
		universal, passAReason = joinExitRates(rets, ctx)
		if passAReason == nil {
			return &Class{
				Actor:     ctx.Actor,
				Verdict:   VerdictSDF,
				Period:    1,
				Ports:     singlePhasePorts(universal, ctx),
				Universal: true,
				Trace:     []string{"constant token rates proven for every reachable data/attribute state"},
				Rates:     universal,
			}
		}
	} else if eA.fail != nil {
		return dynamic(ctx, append([]string{"abstract interpretation gave up"}, eA.fail.chain(4)...)...)
	}
	c := cyclic(pb, wf, ctx, passAReason)
	c.Rates = universal
	return c
}

// cyclic is pass B: the cyclic pattern search from the elaborated
// initial state. passAReason explains why pass A found no universal
// verdict.
func cyclic(pb *filterc.ProgramBytecode, wf *filterc.FuncBytecode, ctx *Context, passAReason []string) *Class {
	eB := newEngine(pb, ctx)
	g := &gstate{
		data:   make(map[string]aval),
		attrs:  make(map[string]aval),
		reads:  make(map[string]cnt),
		writes: make(map[string]cnt),
	}
	for _, d := range ctx.Data {
		g.data[d.Name] = initVal(d)
	}
	for _, d := range ctx.Attrs {
		g.attrs[d.Name] = initVal(d)
	}

	var history []map[string]int
	seen := map[string]int{}
	for n := 0; n < MaxFirings; n++ {
		key, ok, culprit := stateKey(g)
		if !ok {
			tr := []string{fmt.Sprintf("persistent state of pedf.data/attr %q becomes data-dependent after firing %d", culprit, n)}
			if cv, exists := g.data[culprit]; exists {
				tr = append(tr, cv.c.chain(4)...)
			} else if cv, exists := g.attrs[culprit]; exists {
				tr = append(tr, cv.c.chain(4)...)
			}
			return dynamic(ctx, tr...)
		}
		if prev, dup := seen[key]; dup {
			return cyclicClass(ctx, history, prev, n)
		}
		seen[key] = n

		g.reads = make(map[string]cnt)
		g.writes = make(map[string]cnt)
		rets := eB.runFunc(wf, nil, g, nil)
		if eB.fail != nil {
			return dynamic(ctx, append([]string{"abstract interpretation gave up"}, eB.fail.chain(4)...)...)
		}
		if len(rets) == 0 {
			return dynamic(ctx, fmt.Sprintf("every execution path of firing %d faults", n))
		}
		rates, bad := joinExitRates(rets, ctx)
		if bad != nil {
			return dynamic(ctx, bad...)
		}
		history = append(history, rates)

		// Fold the persistent state of all exit paths for the next firing.
		ng := rets[0].g
		for _, rs := range rets[1:] {
			for k, v := range rs.g.data {
				ng.data[k] = join(ng.data[k], v)
			}
			for k, v := range rs.g.attrs {
				ng.attrs[k] = join(ng.attrs[k], v)
			}
		}
		g = ng
	}
	tr := []string{fmt.Sprintf("persistent state does not repeat within %d firings", MaxFirings)}
	tr = append(tr, passAReason...)
	return dynamic(ctx, tr...)
}

func initVal(d VarDecl) aval {
	if d.Init != nil {
		return fromValue(*d.Init)
	}
	return fromValue(filterc.Zero(d.Type))
}

// stateKey canonically renders the persistent state; ok=false (with the
// offending variable) when it is no longer fully concrete.
func stateKey(g *gstate) (string, bool, string) {
	var sb strings.Builder
	render := func(m map[string]aval, tag string) (bool, string) {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			v := m[k]
			if !v.concrete() {
				return false, k
			}
			sb.WriteString(tag)
			sb.WriteString(k)
			sb.WriteString("=")
			sb.WriteString(v.key())
			sb.WriteString(";")
		}
		return true, ""
	}
	if ok, k := render(g.data, "d:"); !ok {
		return "", false, k
	}
	if ok, k := render(g.attrs, "a:"); !ok {
		return "", false, k
	}
	return sb.String(), true, ""
}

// joinExitRates folds the io counters of all exit paths and returns the
// ports whose joined counter is a singleton, with that count. When any
// joined counter is not a singleton, it also returns an explanation
// trace naming the first such port.
func joinExitRates(rets []retState, ctx *Context) (map[string]int, []string) {
	folded := map[string]cnt{}
	for i, rs := range rets {
		for _, d := range append(append([]IfaceDecl{}, ctx.Ins...), ctx.Outs...) {
			var m map[string]cnt
			if _, isIn := inSet(ctx.Ins, d.Name); isIn {
				m = rs.g.reads
			} else {
				m = rs.g.writes
			}
			c := m[d.Name] // zero count when the path never touched it
			if i == 0 {
				folded[d.Name] = c
			} else {
				folded[d.Name] = cntJoin(folded[d.Name], c)
			}
		}
	}
	out := map[string]int{}
	var bad []string
	for _, d := range append(append([]IfaceDecl{}, ctx.Ins...), ctx.Outs...) {
		c := folded[d.Name]
		if c.singleton() {
			out[d.Name] = int(c.lo)
			continue
		}
		if bad != nil {
			continue
		}
		dir := "input"
		if _, isIn := inSet(ctx.Ins, d.Name); !isIn {
			dir = "output"
		}
		hi := fmt.Sprintf("%d", c.hi)
		if c.hi >= cntInf {
			hi = "unbounded"
		}
		tr := []string{fmt.Sprintf("rate of %s %s varies between %d and %s token(s) per firing",
			dir, d.Name, c.lo, hi)}
		if c.c != nil {
			tr = append(tr, c.c.chain(4)...)
		} else {
			// Divergence between paths: cite the fork where they split.
			for _, rs := range rets {
				if rs.lastFork != nil {
					tr = append(tr, rs.lastFork.chain(4)...)
					break
				}
			}
		}
		bad = tr
	}
	return out, bad
}

func inSet(decls []IfaceDecl, name string) (*IfaceDecl, bool) {
	for i := range decls {
		if decls[i].Name == name {
			return &decls[i], true
		}
	}
	return nil, false
}

func singlePhasePorts(rates map[string]int, ctx *Context) []PortRates {
	var out []PortRates
	for _, d := range ctx.Ins {
		out = append(out, PortRates{Port: d.Name, Dir: "input", Pattern: []int{rates[d.Name]}})
	}
	for _, d := range ctx.Outs {
		out = append(out, PortRates{Port: d.Name, Dir: "output", Pattern: []int{rates[d.Name]}})
	}
	return out
}

// cyclicClass builds the verdict once the persistent state has repeated:
// firing `prev` and firing `n` started from identical states, so the
// rate sequence is history[0..prev) followed by history[prev..n) forever.
func cyclicClass(ctx *Context, history []map[string]int, prev, n int) *Class {
	allEqual := true
	for _, ph := range history[1:] {
		for k, v := range history[0] {
			if ph[k] != v {
				allEqual = false
			}
		}
	}
	if allEqual {
		return &Class{
			Actor:   ctx.Actor,
			Verdict: VerdictSDF,
			Period:  1,
			Ports:   singlePhasePorts(history[0], ctx),
			Trace: []string{fmt.Sprintf("constant token rates over %d firing(s) from the initial state (state repeats at firing %d)",
				n, prev)},
		}
	}
	if prev != 0 {
		return dynamic(ctx, fmt.Sprintf(
			"token rates are eventually periodic (state repeats from firing %d) but differ during the %d-firing transient prefix",
			prev, prev))
	}
	period := n
	ports := make([]PortRates, 0, len(ctx.Ins)+len(ctx.Outs))
	mk := func(d IfaceDecl, dir string) {
		pat := make([]int, period)
		for t := 0; t < period; t++ {
			pat[t] = history[t][d.Name]
		}
		ports = append(ports, PortRates{Port: d.Name, Dir: dir, Pattern: pat})
	}
	for _, d := range ctx.Ins {
		mk(d, "input")
	}
	for _, d := range ctx.Outs {
		mk(d, "output")
	}
	return &Class{
		Actor:   ctx.Actor,
		Verdict: VerdictCSDF,
		Period:  period,
		Ports:   ports,
		Trace: []string{fmt.Sprintf("persistent state repeats every %d firing(s): cyclo-static rate pattern proven for the declared initial state",
			period)},
	}
}
