package pedf

import (
	"fmt"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
)

// Module is a sub-graph of filters plus a controller, with external
// ports; modules nest hierarchically (paper Section IV).
type Module struct {
	Name       string
	Parent     *Module
	Sub        []*Module
	Controller *Filter
	Filters    []*Filter

	rt        *Runtime
	portNames []string
	ports     map[string]*Port
	step      uint64
	done      bool
	// stateChange wakes controllers waiting on WAIT_FOR_ACTOR_INIT/SYNC.
	stateChange *sim.Event

	// Debugger interception state, built on first use: the recycled
	// step-protocol hook arguments and the fixed WAIT_FOR_ACTOR_* ones
	// (DESIGN §12).
	stepArgs []lowdbg.Arg
	waitList []lowdbg.Arg
}

// waitArgs returns the WAIT_FOR_ACTOR_INIT/SYNC hook arguments.
func (m *Module) waitArgs() []lowdbg.Arg {
	if m.waitList == nil {
		m.waitList = []lowdbg.Arg{lowdbg.StrArg("module", m.Name)}
	}
	return m.waitList
}

// Step returns the module's current step index.
func (m *Module) Step() uint64 { return m.step }

// Done reports whether the module's controller has finished.
func (m *Module) Done() bool { return m.done }

// Port returns an external port by name.
func (m *Module) Port(name string) *Port { return m.ports[name] }

// Ports returns the external port names in declaration order.
func (m *Module) Ports() []string { return append([]string(nil), m.portNames...) }

// FilterByName finds a filter (not the controller) of this module.
func (m *Module) FilterByName(name string) *Filter {
	for _, f := range m.Filters {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// AddPort declares an external module port.
func (m *Module) AddPort(name string, dir Direction, typ *filterc.Type) (*Port, error) {
	if _, dup := m.ports[name]; dup {
		return nil, fmt.Errorf("pedf: module %s port %q redeclared", m.Name, name)
	}
	p := newPort(m.Name, "", name, dir, typ)
	m.ports[name] = p
	m.portNames = append(m.portNames, name)
	return p, nil
}

// FilterSpec describes a filter to instantiate.
type FilterSpec struct {
	Name       string
	Source     string // filterc source; empty when Work is set
	SourceFile string // defaults to "<name>.c"
	Work       func(*WorkCtx) error
	Data       []VarSpec
	Attrs      []VarSpec
	Inputs     []PortSpec
	Outputs    []PortSpec
}

// ControllerSpec describes a module controller.
type ControllerSpec struct {
	Source     string // filterc source; the work() return value 0 ends the module
	SourceFile string // defaults to "<module>_ctrl.c"
	Ctl        func(*CtlCtx) (bool, error)
	Data       []VarSpec
	Attrs      []VarSpec
	Outputs    []PortSpec // control outputs (cmd links)
	Inputs     []PortSpec
}

// Collector accumulates tokens drained from a top-level module output.
type Collector struct {
	Port   *Port
	Values []filterc.Value
	link   *Link
}

// bindSpec is a recorded `binds A to B` awaiting elaboration.
type bindSpec struct {
	a, b *Port
}

// feederSpec is a recorded external input feed: a token sequence, or a
// byte stream pushed as u8 tokens.
type feederSpec struct {
	src    *Port // environment-side output port
	values []filterc.Value
	bytes  []byte
}

// count is the number of tokens the feed pushes.
func (fs *feederSpec) count() int { return len(fs.values) + len(fs.bytes) }

// token returns the feed's i-th token.
func (fs *feederSpec) token(i int) filterc.Value {
	if fs.bytes != nil {
		return filterc.Int(filterc.U8, int64(fs.bytes[i]))
	}
	return fs.values[i]
}

// Runtime hosts a PEDF application on a machine, under an optional
// low-level debugger.
type Runtime struct {
	K    *sim.Kernel
	M    *mach.Machine
	Dbg  *lowdbg.Debugger
	Syms *dbginfo.Table

	// LinkCap overrides the default FIFO capacity for new links.
	LinkCap int

	// FilterCEngine selects the filterc execution engine for every actor
	// interpreter this runtime creates (filterc.EngineDefault follows the
	// slowinterp build tag). The differential replay tests use
	// it to run the same application on the walker and on the VM.
	FilterCEngine filterc.Engine

	modules    map[string]*Module
	moduleList []*Module
	actors     map[string]*Filter // filters AND controllers by name
	actorList  []*Filter
	links      []*Link
	binds      []bindSpec
	feeders    []feederSpec
	collectors []*Collector
	coop       map[string]bool
	elaborated bool
	started    bool

	// fireHist is the firing-duration histogram, registered by Start when
	// the kernel has an observer installed (nil otherwise).
	fireHist *obs.Histogram

	// Batched execution engine state (batch.go / DESIGN §12).
	batchPlans  []BatchPlan
	batchReason string // why every region runs per-token ("" when batched)
	batchShown  int    // regions whose current mode KBatchMode recorded
	batchHold   string // non-empty demotes every region (e.g. debug client attached)
	batchWired  bool   // arm/fault watchers installed

	payloadBuf []byte         // reused rendering buffer (see recordToken)
	stmtBuf    []dbginfo.Stmt // reused line-table batch (see newActor)
}

// recordToken records a token event, with v rendered as its payload
// when the recorder asks for payloads. The rendering goes through a
// buffer the runtime keeps and the recorder copies it, so recording
// allocates nothing.
func (rt *Runtime) recordToken(rec *obs.Recorder, ev obs.Event, v filterc.Value) {
	if !rec.Payloads() {
		rec.Record(ev)
		return
	}
	rt.payloadBuf = v.AppendString(rt.payloadBuf[:0])
	rec.RecordPayload(ev, rt.payloadBuf)
}

// NewRuntime creates a runtime. dbg may be nil (undebugged run).
func NewRuntime(k *sim.Kernel, m *mach.Machine, dbg *lowdbg.Debugger) *Runtime {
	rt := &Runtime{
		K: k, M: m, Dbg: dbg,
		LinkCap: DefaultLinkCap,
		modules: make(map[string]*Module),
		actors:  make(map[string]*Filter),
	}
	if dbg != nil {
		rt.Syms = dbg.Syms
	} else {
		rt.Syms = dbginfo.NewTable()
	}
	rt.defineRuntimeSymbols()
	return rt
}

func (rt *Runtime) defineRuntimeSymbols() {
	all := append(append(RegistrationSymbols(), SchedulingSymbols()...), DataSymbols()...)
	all = append(all, ControlSymbols()...)
	for _, s := range all {
		if rt.Syms.Lookup(s) == nil {
			rt.Syms.MustDefine(dbginfo.Symbol{
				Name: s, Kind: dbginfo.SymFunc, Entity: dbginfo.EntRuntime, File: "pedf_runtime.c",
			})
		}
	}
}

// SetCooperation enables the paper's mitigation "option 2" (framework
// cooperation): data-exchange hook calls are only issued for the listed
// actors. nil (default) reports every actor.
func (rt *Runtime) SetCooperation(actors []string) {
	if actors == nil {
		rt.coop = nil
		return
	}
	rt.coop = make(map[string]bool, len(actors))
	for _, a := range actors {
		rt.coop[a] = true
	}
}

// hook reports a framework API call to the attached debugger.
func (rt *Runtime) hook(p *sim.Proc, fn string, args []lowdbg.Arg) func(lowdbg.Datum) {
	if rt.Dbg == nil {
		return nil
	}
	return rt.Dbg.EnterFunc(p, fn, args)
}

// hookData reports a data-exchange call, honouring framework cooperation.
func (rt *Runtime) hookData(p *sim.Proc, actor, fn string, args []lowdbg.Arg) func(lowdbg.Datum) {
	if rt.Dbg == nil {
		return nil
	}
	if rt.coop != nil && !rt.coop[actor] {
		return nil
	}
	return rt.Dbg.EnterFunc(p, fn, args)
}

// linkSeries and actorSeries are the per-link and per-actor metric
// families; globalSeries are the runtime's unlabelled counters.
var (
	linkSeries = []obs.Series{
		{Name: "pedf_link_occupancy", Help: "tokens currently queued on a link", Type: obs.TypeGauge},
		{Name: "pedf_link_pushes_total", Help: "tokens ever pushed on a link", Type: obs.TypeCounter},
		{Name: "pedf_link_pops_total", Help: "tokens ever popped from a link", Type: obs.TypeCounter},
		{Name: "pedf_link_drops_total", Help: "tokens removed without a pop (surgery or faults)", Type: obs.TypeCounter},
	}
	actorSeries = []obs.Series{
		{Name: "pedf_actor_firings_total", Help: "completed WORK invocations", Type: obs.TypeCounter},
		{Name: "pedf_actor_blocked_ns_total", Help: "simulated ns spent blocked on links or sync", Type: obs.TypeCounter},
	}
	// The bytecode-compiler counters are process-wide: programs are
	// interned across runtimes and each compiles its code once. Worlds
	// built by internal/stack also carry the analyzer's process-wide
	// classification counters (pedfgraph.RegisterMetrics).
	globalSeries = []obs.Series{
		{Name: "filterc_compile_total", Help: "filter programs compiled to bytecode", Type: obs.TypeCounter},
		{Name: "filterc_cache_hits_total", Help: "compiled-code lookups that found the program already compiled", Type: obs.TypeCounter},
		{Name: "pedf_faults_injected_total", Help: "injected faults that have fired", Type: obs.TypeCounter},
	}
)

// registerObsMetrics publishes per-link and per-actor metric families
// into the kernel's observability registry. Everything is
// function-backed — labels and values are read at exposition from state
// the runtime keeps anyway, so neither the hot path nor the build pays
// for them — except the firing-duration histogram, which invokeWork
// feeds only while an observer is installed.
func (rt *Runtime) registerObsMetrics() {
	rec := rt.K.Observer()
	if rec == nil {
		return
	}
	m := rec.Metrics
	links, actors := rt.links, rt.actorList
	m.RegisterFamily(obs.Family{
		Series: linkSeries, Label: "link", Rows: len(links),
		Value: func(i int) string { return links[i].metricLabel() },
		Read: func(i, col int) float64 {
			l := links[i]
			switch col {
			case 0:
				return float64(l.n)
			case 1:
				return float64(l.pushes)
			case 2:
				return float64(l.pops)
			}
			return float64(l.drops)
		},
	})
	m.RegisterFamily(obs.Family{
		Series: actorSeries, Label: "actor", Rows: len(actors),
		Value: func(i int) string { return actors[i].Name },
		Read: func(i, col int) float64 {
			if col == 0 {
				return float64(actors[i].firings)
			}
			return float64(actors[i].blockedNS)
		},
	})
	rt.fireHist = m.Histogram("pedf_firing_duration_ns",
		"simulated duration of one WORK firing",
		[]float64{100, 1000, 10_000, 100_000, 1_000_000})
	m.RegisterFamily(obs.Family{
		Series: globalSeries, Rows: 1,
		Read: func(_, col int) float64 {
			switch col {
			case 0:
				return float64(filterc.CompileTotal())
			case 1:
				return float64(filterc.CacheHits())
			}
			if fi := rt.K.Faults(); fi != nil {
				return float64(fi.InjectedTotal())
			}
			return 0
		},
	})
}

// portPE returns the PE an endpoint lives on (environment ports live on
// the host).
func (rt *Runtime) portPE(p *Port) *mach.PE {
	if p.owner != nil {
		return p.owner.PE
	}
	return rt.M.Host
}

// Modules returns all modules in creation order.
func (rt *Runtime) Modules() []*Module { return append([]*Module(nil), rt.moduleList...) }

// ModuleByName finds a module.
func (rt *Runtime) ModuleByName(name string) *Module { return rt.modules[name] }

// Actors returns all filters and controllers in creation order.
func (rt *Runtime) Actors() []*Filter { return append([]*Filter(nil), rt.actorList...) }

// ActorByName finds a filter or controller by its global name.
func (rt *Runtime) ActorByName(name string) *Filter { return rt.actors[name] }

// Links returns all elaborated links.
func (rt *Runtime) Links() []*Link { return append([]*Link(nil), rt.links...) }

// Collectors returns the registered output collectors.
func (rt *Runtime) Collectors() []*Collector { return append([]*Collector(nil), rt.collectors...) }

// NewModule creates a module (parent nil for top level). Module names
// are globally unique.
func (rt *Runtime) NewModule(name string, parent *Module) (*Module, error) {
	if rt.started {
		return nil, fmt.Errorf("pedf: cannot add modules after Start")
	}
	if _, dup := rt.modules[name]; dup {
		return nil, fmt.Errorf("pedf: module %q redefined", name)
	}
	m := &Module{
		Name: name, Parent: parent, rt: rt,
		ports:       make(map[string]*Port),
		stateChange: rt.K.NewEvent("module." + name + ".state"),
	}
	rt.modules[name] = m
	rt.moduleList = append(rt.moduleList, m)
	if parent != nil {
		parent.Sub = append(parent.Sub, m)
	}
	return m, nil
}

// NewFilter instantiates a filter inside a module. Filter names are
// globally unique (as in the paper's case study: pipe, ipf, ipred, ...).
func (rt *Runtime) NewFilter(m *Module, spec FilterSpec) (*Filter, error) {
	if rt.started {
		return nil, fmt.Errorf("pedf: cannot add filters after Start")
	}
	if spec.Work == nil && spec.Source == "" {
		return nil, fmt.Errorf("pedf: filter %q has neither source nor native work", spec.Name)
	}
	f, err := rt.newActor(m, spec.Name, RoleFilter, spec.Source, spec.SourceFile,
		spec.Data, spec.Attrs, spec.Inputs, spec.Outputs)
	if err != nil {
		return nil, err
	}
	f.NativeWork = spec.Work
	m.Filters = append(m.Filters, f)
	return f, nil
}

// SetController installs a module's controller (exactly one per module).
func (rt *Runtime) SetController(m *Module, spec ControllerSpec) (*Filter, error) {
	if rt.started {
		return nil, fmt.Errorf("pedf: cannot add controllers after Start")
	}
	if m.Controller != nil {
		return nil, fmt.Errorf("pedf: module %q already has a controller", m.Name)
	}
	if spec.Ctl == nil && spec.Source == "" {
		return nil, fmt.Errorf("pedf: controller of %q has neither source nor native ctl", m.Name)
	}
	name := m.Name + "_controller"
	srcFile := spec.SourceFile
	if srcFile == "" && spec.Source != "" {
		srcFile = m.Name + "_ctrl.c"
	}
	c, err := rt.newActor(m, name, RoleController, spec.Source, srcFile,
		spec.Data, spec.Attrs, spec.Inputs, spec.Outputs)
	if err != nil {
		return nil, err
	}
	c.NativeCtl = spec.Ctl
	m.Controller = c
	return c, nil
}

func (rt *Runtime) newActor(m *Module, name string, role Role, source, sourceFile string,
	data, attrs []VarSpec, inputs, outputs []PortSpec) (*Filter, error) {
	if _, dup := rt.actors[name]; dup {
		return nil, fmt.Errorf("pedf: actor %q redefined", name)
	}
	f := &Filter{
		Name: name, Role: role, Module: m, rt: rt,
		PE:      rt.M.MapNext(),
		data:    make(map[string]*filterc.Value, len(data)),
		attrs:   make(map[string]*filterc.Value, len(attrs)),
		ins:     make(map[string]*Port, len(inputs)),
		outs:    make(map[string]*Port, len(outputs)),
		startEv: rt.K.NewEvent("filter." + name + ".start"),

		dataNames: make([]string, 0, len(data)),
		attrNames: make([]string, 0, len(attrs)),
		inNames:   make([]string, 0, len(inputs)),
		outNames:  make([]string, 0, len(outputs)),
		ports:     make([]*Port, 0, len(inputs)+len(outputs)),
	}
	if source != "" {
		if sourceFile == "" {
			sourceFile = name + ".c"
		}
		prog, err := filterc.Intern(sourceFile, source)
		if err != nil {
			return nil, fmt.Errorf("pedf: filter %s: %w", name, err)
		}
		if prog.Func("work") == nil {
			return nil, fmt.Errorf("pedf: filter %s source defines no work()", name)
		}
		f.Prog = prog
		f.SourceFile = sourceFile
		if rt.Dbg != nil {
			rt.Dbg.AddSource(sourceFile, source)
		}
		rt.stmtBuf = rt.stmtBuf[:0]
		for _, sl := range prog.StmtLines() {
			rt.stmtBuf = append(rt.stmtBuf, dbginfo.Stmt(sl))
		}
		rt.Syms.LineTableFor(sourceFile).AddStmts(rt.stmtBuf)
	}
	vals := make([]filterc.Value, len(data)+len(attrs))
	for i, v := range data {
		vals[i] = initValue(v)
		f.data[v.Name] = &vals[i]
		f.dataNames = append(f.dataNames, v.Name)
	}
	for i, v := range attrs {
		val := &vals[len(data)+i]
		*val = initValue(v)
		f.attrs[v.Name] = val
		f.attrNames = append(f.attrNames, v.Name)
	}
	for _, ps := range inputs {
		if err := addPort(f, ps, In); err != nil {
			return nil, err
		}
	}
	for _, ps := range outputs {
		if err := addPort(f, ps, Out); err != nil {
			return nil, err
		}
	}
	rt.registerActorSymbols(f)
	rt.actors[name] = f
	rt.actorList = append(rt.actorList, f)
	return f, nil
}

func initValue(v VarSpec) filterc.Value {
	val := filterc.Zero(v.Type)
	if v.Type.Kind == filterc.KScalar && v.Init != 0 {
		val = filterc.Int(v.Type.Base, v.Init)
	}
	return val
}

func addPort(f *Filter, ps PortSpec, dir Direction) error {
	p := newPort(f.Name, "", ps.Name, dir, ps.Type)
	p.owner = f
	if dir == In {
		if _, dup := f.ins[ps.Name]; dup {
			return fmt.Errorf("pedf: %s input %q redeclared", f.Name, ps.Name)
		}
		f.ins[ps.Name] = p
		f.inNames = append(f.inNames, ps.Name)
	} else {
		if _, dup := f.outs[ps.Name]; dup {
			return fmt.Errorf("pedf: %s output %q redeclared", f.Name, ps.Name)
		}
		f.outs[ps.Name] = p
		f.outNames = append(f.outNames, ps.Name)
	}
	f.ports = append(f.ports, p)
	return nil
}

// registerActorSymbols defines the actor's mangled debug symbols and
// exposes its data objects to the debugger.
func (rt *Runtime) registerActorSymbols(f *Filter) {
	var workSym string
	var ent dbginfo.EntityKind
	owner := f.Name
	if f.Role == RoleController {
		workSym = dbginfo.MangleControllerWork(f.Module.Name)
		ent = dbginfo.EntController
		owner = f.Module.Name
	} else {
		workSym = dbginfo.MangleFilterWork(f.Name)
		ent = dbginfo.EntFilter
	}
	line := 0
	file := f.SourceFile
	if f.Prog != nil {
		if wf := f.Prog.Func("work"); wf != nil {
			line = wf.Pos.Line
		}
	}
	rt.Syms.MustDefine(dbginfo.Symbol{
		Name: workSym, Pretty: dbginfo.PrettyWork(owner), Kind: dbginfo.SymFunc,
		Entity: ent, Owner: owner, File: file, Line: line,
	})
	for _, dn := range f.dataNames {
		sym := dbginfo.MangleFilterData(f.Name, dn)
		rt.Syms.MustDefine(dbginfo.Symbol{
			Name: sym, Pretty: f.Name + "." + dn, Kind: dbginfo.SymData,
			Entity: ent, Owner: owner, File: file,
		})
		if rt.Dbg != nil {
			rt.Dbg.RegisterObject(sym, f.data[dn])
		}
	}
	for _, an := range f.attrNames {
		sym := dbginfo.MangleFilterAttr(f.Name, an)
		rt.Syms.MustDefine(dbginfo.Symbol{
			Name: sym, Pretty: f.Name + ".attribute." + an, Kind: dbginfo.SymData,
			Entity: ent, Owner: owner, File: file,
		})
		if rt.Dbg != nil {
			rt.Dbg.RegisterObject(sym, f.attrs[an])
		}
	}
}

// WorkSymbol returns the mangled WORK symbol of an actor (what `filter X
// catch work` plants a breakpoint on).
func WorkSymbol(f *Filter) string {
	if f.Role == RoleController {
		return dbginfo.MangleControllerWork(f.Module.Name)
	}
	return dbginfo.MangleFilterWork(f.Name)
}

// PlaceActor overrides the automatic round-robin mapping, pinning an
// actor to a specific processing element (by global PE id, or -1 for the
// host). Must be called before Start; link transfer costs follow the
// placement (intra-cluster L1, inter-cluster L2, host DMA).
func (rt *Runtime) PlaceActor(name string, peID int) error {
	if rt.started {
		return fmt.Errorf("pedf: cannot re-place actors after Start")
	}
	f := rt.ActorByName(name)
	if f == nil {
		return fmt.Errorf("pedf: no actor %q", name)
	}
	pe := rt.M.PEByID(peID)
	if pe == nil {
		return fmt.Errorf("pedf: no processing element %d", peID)
	}
	f.PE.Assigned--
	f.PE = pe
	pe.Assigned++
	return nil
}

// Bind records `binds a to b` (ADL semantics): actor-to-actor bindings
// become links at elaboration; bindings that cross a module boundary
// record port aliases.
func (rt *Runtime) Bind(a, b *Port) error {
	if rt.started {
		return fmt.Errorf("pedf: cannot bind after Start")
	}
	if a == nil || b == nil {
		return fmt.Errorf("pedf: bind with nil port")
	}
	if !typesMatch(a.Type, b.Type) {
		return fmt.Errorf("pedf: type mismatch binding %s (%s) to %s (%s)",
			a.Qualified(), a.Type, b.Qualified(), b.Type)
	}
	switch {
	case a.Dir == In && b.Dir == In:
		// Outer module input forwards to inner input.
		if a.alias != nil {
			return fmt.Errorf("pedf: %s already bound", a.Qualified())
		}
		a.alias = b
	case a.Dir == Out && b.Dir == Out:
		// Inner output forwards to outer module output.
		if b.alias != nil {
			return fmt.Errorf("pedf: %s already bound", b.Qualified())
		}
		b.alias = a
	case a.Dir == Out && b.Dir == In:
		rt.binds = append(rt.binds, bindSpec{a: a, b: b})
	default: // a In, b Out — accept the reversed spelling
		rt.binds = append(rt.binds, bindSpec{a: b, b: a})
	}
	return nil
}

func typesMatch(a, b *filterc.Type) bool {
	if a == nil || b == nil {
		return false
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case filterc.KScalar:
		return a.Base == b.Base
	case filterc.KStruct:
		return a.Name == b.Name
	default:
		return a.Len == b.Len && typesMatch(a.Elem, b.Elem)
	}
}

// resolve follows module-port aliases to the actor/environment endpoint.
func resolve(p *Port) (*Port, error) {
	seen := 0
	for p.alias != nil {
		p = p.alias
		if seen++; seen > 64 {
			return nil, fmt.Errorf("pedf: alias cycle at %s", p.Qualified())
		}
	}
	return p, nil
}

// FeedInput connects a top-level module input port to the environment
// and schedules the given token sequence to be pushed from the host.
func (rt *Runtime) FeedInput(port *Port, values []filterc.Value) error {
	return rt.feed("FeedInput", port, feederSpec{values: values})
}

// FeedBytes is FeedInput for a byte stream: each byte is pushed as a u8
// token, made as it is pushed instead of held as one token per byte for
// the life of the world.
func (rt *Runtime) FeedBytes(port *Port, bytes []byte) error {
	return rt.feed("FeedBytes", port, feederSpec{bytes: bytes})
}

func (rt *Runtime) feed(op string, port *Port, fs feederSpec) error {
	if rt.started {
		return fmt.Errorf("pedf: cannot feed after Start")
	}
	if port.Dir != In {
		return fmt.Errorf("pedf: %s on non-input %s", op, port.Qualified())
	}
	fs.src = newPort(EnvActor, "feed_", port.Name, Out, port.Type)
	rt.binds = append(rt.binds, bindSpec{a: fs.src, b: port})
	rt.feeders = append(rt.feeders, fs)
	return nil
}

// CollectOutput connects a top-level module output port to the
// environment; drained tokens accumulate in the returned Collector.
func (rt *Runtime) CollectOutput(port *Port) (*Collector, error) {
	if rt.started {
		return nil, fmt.Errorf("pedf: cannot collect after Start")
	}
	if port.Dir != Out {
		return nil, fmt.Errorf("pedf: CollectOutput on non-output %s", port.Qualified())
	}
	dst := newPort(EnvActor, "drain_", port.Name, In, port.Type)
	rt.binds = append(rt.binds, bindSpec{a: port, b: dst})
	col := &Collector{Port: dst}
	rt.collectors = append(rt.collectors, col)
	return col, nil
}
