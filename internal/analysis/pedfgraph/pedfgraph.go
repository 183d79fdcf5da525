// Package pedfgraph bridges an elaborated PEDF runtime into the static
// analyzer: it converts the runtime's modules, actors and links into the
// analysis graph model (with statically inferred token rates), derives
// per-actor program contexts from the instantiated ports, and installs
// the simulator's pre-run warning hook.
//
// It lives outside internal/analysis so that the analyzer itself stays
// free of pedf dependencies (internal/core imports the analyzer and must
// not transitively import internal/pedf).
package pedfgraph

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dfdbg/internal/analysis"
	"dfdbg/internal/analysis/absint"
	"dfdbg/internal/filterc"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// FromRuntime converts a PEDF runtime into the analyzer's graph model,
// elaborating it leniently first if needed (the top module's external
// ports may dangle, as under cmd/mindc).
func FromRuntime(rt *pedf.Runtime, name string) (*analysis.Graph, error) {
	if err := rt.Elaborate(false); err != nil {
		return nil, err
	}
	g := analysis.NewGraph(name)

	// Actor ports reachable through a module's external interface may
	// legitimately dangle under lenient elaboration: exempt them from
	// the dangling-port check.
	external := map[*pedf.Port]bool{}
	for _, m := range rt.Modules() {
		for _, pn := range m.Ports() {
			p := m.Port(pn)
			if e := p.Endpoint(); e != p && e.Link() == nil {
				external[e] = true
			}
		}
	}

	portInfo := map[*pedf.Port]*analysis.PortInfo{}
	for _, f := range rt.Actors() {
		kind := "filter"
		if f.Role == pedf.RoleController {
			kind = "controller"
		}
		a := g.AddActor(f.Name, kind, f.Module.Name)
		reads, writes := analysis.InferRates(f.Prog, "work")
		rateOf := func(rates analysis.Rates, port string) int {
			if f.Prog == nil {
				return analysis.RateUnknown // native Go work(): dynamic
			}
			return rates[port] // absent: provably untouched, rate 0
		}
		for _, n := range f.Inputs() {
			p := f.In(n)
			pi := a.AddIn(n, typeName(p.Type), rateOf(reads, n))
			pi.External = external[p]
			portInfo[p] = pi
		}
		for _, n := range f.Outputs() {
			p := f.Out(n)
			pi := a.AddOut(n, typeName(p.Type), rateOf(writes, n))
			pi.External = external[p]
			portInfo[p] = pi
		}
	}

	feedCount := map[*pedf.Port]int{}
	for _, fd := range rt.Feeds() {
		feedCount[fd.Src] = fd.Count
	}

	var envNode *analysis.ActorNode
	endpoint := func(p *pedf.Port) *analysis.PortInfo {
		if pi, ok := portInfo[p]; ok {
			return pi
		}
		// Environment-side (or otherwise actorless) endpoint.
		if envNode == nil {
			envNode = g.AddActor(pedf.EnvActor, "env", "")
		}
		var pi *analysis.PortInfo
		if p.Dir == pedf.In {
			pi = envNode.AddIn(p.Name, typeName(p.Type), analysis.RateUnknown)
		} else {
			pi = envNode.AddOut(p.Name, typeName(p.Type), analysis.RateUnknown)
		}
		portInfo[p] = pi
		return pi
	}

	for _, l := range rt.Links() {
		le := g.Connect(endpoint(l.Src), endpoint(l.Dst), l.Kind.String())
		le.ID = int64(l.ID)
		le.InitialTokens = l.Occupancy()
		le.Cap = l.Cap
		if c, ok := feedCount[l.Src]; ok {
			le.FeedTokens = c
		}
	}
	return g, nil
}

func typeName(t *filterc.Type) string {
	if t == nil {
		return ""
	}
	return t.String()
}

// ProgramContextFor derives the analyzer's program context from an
// instantiated actor: its declared io interfaces, private data,
// attributes and role.
func ProgramContextFor(f *pedf.Filter) *analysis.ProgramContext {
	ctx := &analysis.ProgramContext{
		Controller: f.Role == pedf.RoleController,
		Ifaces:     []analysis.Iface{},
		Data:       map[string]*filterc.Type{},
		Attrs:      map[string]*filterc.Type{},
	}
	for _, n := range f.Inputs() {
		ctx.Ifaces = append(ctx.Ifaces, analysis.Iface{Name: n, Dir: "input", Type: f.In(n).Type})
	}
	for _, n := range f.Outputs() {
		ctx.Ifaces = append(ctx.Ifaces, analysis.Iface{Name: n, Dir: "output", Type: f.Out(n).Type})
	}
	for _, n := range f.DataNames() {
		if v, ok := f.DataVal(n); ok {
			ctx.Data[n] = v.Type
		}
	}
	for _, n := range f.AttrNames() {
		if v, ok := f.AttrVal(n); ok {
			ctx.Attrs[n] = v.Type
		}
	}
	return ctx
}

// AbsContextFor derives the abstract interpreter's actor context from an
// instantiated actor: declared io interfaces with types, and the
// elaborated initial values of its private data and attributes.
func AbsContextFor(f *pedf.Filter) *absint.Context {
	ctx := &absint.Context{Actor: f.Name, Controller: f.Role == pedf.RoleController}
	for _, n := range f.Inputs() {
		ctx.Ins = append(ctx.Ins, absint.IfaceDecl{Name: n, Type: f.In(n).Type})
	}
	for _, n := range f.Outputs() {
		ctx.Outs = append(ctx.Outs, absint.IfaceDecl{Name: n, Type: f.Out(n).Type})
	}
	for _, n := range f.DataNames() {
		if v, ok := f.DataVal(n); ok {
			vv := v.Clone()
			ctx.Data = append(ctx.Data, absint.VarDecl{Name: n, Type: v.Type, Init: &vv})
		}
	}
	for _, n := range f.AttrNames() {
		if v, ok := f.AttrVal(n); ok {
			vv := v.Clone()
			ctx.Attrs = append(ctx.Attrs, absint.VarDecl{Name: n, Type: v.Type, Init: &vv})
		}
	}
	return ctx
}

// classMemoCap bounds the process-wide classification memo. The H.264
// decoder needs 9 entries per bug variant; past the bound an arbitrary
// entry is evicted.
const classMemoCap = 1024

// classKey identifies one classification: instances of one program with
// identical declared state classify identically, in any world. The key
// holds its Program, so a freed program's address can never alias a
// new one while the entry lives.
type classKey struct {
	prog *filterc.Program
	sig  string
}

// classMemo maps keys to classes that are never handed out: callers get
// copies, so entries stay immutable.
var classMemo = struct {
	sync.Mutex
	m map[classKey]*absint.Class
}{m: make(map[classKey]*absint.Class)}

var classifyTotal, memoHits atomic.Int64

// ClassifyTotal reports how many actor classifications have run, for
// the analysis_classify_total observability counter.
func ClassifyTotal() int64 { return classifyTotal.Load() }

// MemoHits reports how many actor classifications were served from the
// memo, for the analysis_classify_memo_hits_total observability counter.
func MemoHits() int64 { return memoHits.Load() }

// RegisterMetrics publishes the analysis and classification counters
// into an observability registry. Like the filterc counters pedf
// publishes next to them, they are process-wide.
func RegisterMetrics(m *obs.Registry) {
	m.CounterFunc("analysis_runs_total", "full static analyses run",
		func() float64 { return float64(AnalysisRuns()) })
	m.CounterFunc("analysis_memo_hits_total", "world-build analyses served from the memo",
		func() float64 { return float64(AnalysisMemoHits()) })
	m.CounterFunc("analysis_classify_total", "actor classifications run by the abstract interpreter",
		func() float64 { return float64(ClassifyTotal()) })
	m.CounterFunc("analysis_classify_memo_hits_total", "actor classifications served from the memo",
		func() float64 { return float64(MemoHits()) })
}

// classSig renders everything of an actor's context that classification
// reads: its role, and the names, full types and initial values of its
// interfaces, data and attributes. The actor's name is not part of it.
func classSig(ctx *absint.Context) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v|", ctx.Controller)
	for _, d := range ctx.Ins {
		fmt.Fprintf(&b, "i:%s:%s|", d.Name, typeSig(d.Type))
	}
	for _, d := range ctx.Outs {
		fmt.Fprintf(&b, "o:%s:%s|", d.Name, typeSig(d.Type))
	}
	for _, d := range ctx.Data {
		fmt.Fprintf(&b, "d:%s:%s=%s|", d.Name, typeSig(d.Type), d.Init)
	}
	for _, d := range ctx.Attrs {
		fmt.Fprintf(&b, "a:%s:%s=%s|", d.Name, typeSig(d.Type), d.Init)
	}
	return b.String()
}

// typeSig renders a type with its struct layouts: two struct types of
// one name may differ between worlds.
func typeSig(t *filterc.Type) string {
	if t == nil || t.Kind != filterc.KStruct {
		return typeName(t)
	}
	var b strings.Builder
	b.WriteString(t.Name + "{")
	for _, f := range t.Fields {
		fmt.Fprintf(&b, "%s:%s;", f.Name, typeSig(f.Type))
	}
	b.WriteString("}")
	return b.String()
}

// classify returns the class of one actor, from the memo when an
// identical actor was classified before in this process.
func classify(f *pedf.Filter) *absint.Class {
	ctx := AbsContextFor(f)
	k := classKey{f.Prog, classSig(ctx)}
	classMemo.Lock()
	c, ok := classMemo.m[k]
	classMemo.Unlock()
	if ok {
		memoHits.Add(1)
	} else {
		classifyTotal.Add(1)
		c = absint.Classify(f.Prog, ctx)
		classMemo.Lock()
		if len(classMemo.m) >= classMemoCap {
			for old := range classMemo.m {
				delete(classMemo.m, old)
				break
			}
		}
		classMemo.m[k] = c
		classMemo.Unlock()
	}
	return cloneClass(c, f.Name)
}

// cloneClass is a deep copy of c renamed for actor, so no caller can
// reach a memo entry.
func cloneClass(c *absint.Class, actor string) *absint.Class {
	inst := *c
	inst.Actor = actor
	inst.Trace = append([]string(nil), c.Trace...)
	inst.Ports = append([]absint.PortRates(nil), c.Ports...)
	for i := range inst.Ports {
		inst.Ports[i].Pattern = append([]int(nil), inst.Ports[i].Pattern...)
	}
	return &inst
}

// resetClassMemo empties the memo; benchmarks use it to measure a cold
// analysis.
func resetClassMemo() {
	classMemo.Lock()
	clear(classMemo.m)
	classMemo.Unlock()
}

// ClassifyActors runs the abstract-interpretation classifier over every
// actor of an elaborated runtime. Classes are memoized process-wide per
// program and declared state (DESIGN §10); each call returns copies the
// caller owns.
func ClassifyActors(rt *pedf.Runtime) map[string]*absint.Class {
	out := map[string]*absint.Class{}
	for _, f := range rt.Actors() {
		out[f.Name] = classify(f)
	}
	return out
}

// Analyze runs the full static analysis pass — graph analyzers,
// per-actor filterc analyzers, the abstract-interpretation classifier,
// region clustering, balance equations and buffer bounds — over an
// application, returning the report together with the analysis graph
// (for region DOT rendering). name labels graph diagnostics (typically
// the ADL file's base name).
func Analyze(rt *pedf.Runtime, name string) (*analysis.Report, *analysis.Graph, error) {
	analysisRuns.Add(1)
	g, err := FromRuntime(rt, name)
	if err != nil {
		return nil, nil, err
	}
	rep := analysis.CheckGraph(g)
	for _, f := range rt.Actors() {
		if f.Prog == nil {
			continue
		}
		rep.Merge(analysis.CheckProgram(f.Prog, ProgramContextFor(f)))
	}
	classes := ClassifyActors(rt)
	regions := analysis.ComputeRegions(g, classes)
	rep.Merge(analysis.CheckClasses(g, classes))
	rep.Merge(analysis.CheckRegions(g, regions, classes))
	rep.Regions = regions
	names := make([]string, 0, len(classes))
	for n := range classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.Classes = append(rep.Classes, classes[n])
	}
	// Several instances of one filter type share a source file; identical
	// findings collapse.
	rep.Dedupe()
	rep.Sort()
	return rep, g, nil
}

// CheckRuntime runs the full static analysis pass over an application.
// It is Analyze without the graph return, kept for call sites that only
// need the report.
func CheckRuntime(rt *pedf.Runtime, name string) (*analysis.Report, error) {
	rep, _, err := Analyze(rt, name)
	return rep, err
}

// BatchPlans runs the analyzer over a started runtime and renders every
// proven-SDF region as a pedf batch plan: the executable bridge between
// the static side (repetition vectors, schedules, buffer bounds) and
// the batched execution engine (pedf.EnableBatch). Regions the analyzer
// cannot prove — dynamic, inconsistent, or unscheduled — are simply
// absent from the result and keep the per-token path. Plans are
// memoized process-wide per application shape (DESIGN §10); each call
// returns copies the caller owns.
func BatchPlans(rt *pedf.Runtime, name string) ([]pedf.BatchPlan, error) {
	s, err := shapeOf(rt, name)
	if err != nil {
		return nil, err
	}
	return clonePlans(s.plans), nil
}

// EnableBatch analyzes the application and installs batch plans for
// every proven-SDF region on the runtime. Returns the number of regions
// installed. Call after pedf.Runtime.Start.
func EnableBatch(rt *pedf.Runtime, name string) (int, error) {
	plans, err := BatchPlans(rt, name)
	if err != nil {
		return 0, err
	}
	if err := rt.EnableBatch(plans); err != nil {
		return 0, err
	}
	return len(rt.RegionModes()), nil
}

// InstallPreRun registers a one-shot static analysis pass on the kernel:
// immediately before the first dispatch, warnings and errors are printed
// to w (one line each, without DOT details). The run itself proceeds —
// the pass warns, it does not gate. The lines are memoized with the
// batch plans, per application shape.
func InstallPreRun(k *sim.Kernel, rt *pedf.Runtime, name string, w io.Writer) {
	k.OnPreRun(func() {
		s, err := shapeOf(rt, name)
		if err != nil {
			fmt.Fprintf(w, "analysis: %v\n", err)
			return
		}
		io.WriteString(w, s.warn)
	})
}
