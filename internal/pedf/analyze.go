package pedf

import "dfdbg/internal/filterc"

// Exported read-only views used by the static analysis bridge
// (internal/analysis/pedfgraph) to convert a runtime into the analyzer's
// neutral graph model.

// Feed describes one environment input feed scheduled via FeedInput.
type Feed struct {
	Src   *Port // environment-side output port
	Count int   // total tokens the environment will push
}

// Feeds returns the feeds registered via FeedInput, in registration order.
func (rt *Runtime) Feeds() []Feed {
	out := make([]Feed, rt.NumFeeds())
	for i := range out {
		out[i] = rt.FeedAt(i)
	}
	return out
}

// Endpoint follows module-port aliases inward to the actor or
// environment endpoint. A port that is already an endpoint (or whose
// alias chain is degenerate) returns itself.
func (p *Port) Endpoint() *Port {
	e, err := resolve(p)
	if err != nil {
		return p
	}
	return e
}

// Owner returns the filter or controller owning this port; nil for
// module and environment ports.
func (p *Port) Owner() *Filter { return p.owner }

// The counted accessors below read the runtime in place, in the order
// the copying accessors (Actors, Modules, Links, Feeds, Ports, Inputs,
// Outputs, DataNames, AttrNames) return it, so a caller that walks the
// whole runtime on every lookup (the analysis memo's shape key)
// allocates nothing.

// NumActors is len(rt.Actors()); ActorAt(i) is rt.Actors()[i].
func (rt *Runtime) NumActors() int        { return len(rt.actorList) }
func (rt *Runtime) ActorAt(i int) *Filter { return rt.actorList[i] }

// NumModules is len(rt.Modules()); ModuleAt(i) is rt.Modules()[i].
func (rt *Runtime) NumModules() int        { return len(rt.moduleList) }
func (rt *Runtime) ModuleAt(i int) *Module { return rt.moduleList[i] }

// NumLinks is len(rt.Links()); LinkAt(i) is rt.Links()[i].
func (rt *Runtime) NumLinks() int      { return len(rt.links) }
func (rt *Runtime) LinkAt(i int) *Link { return rt.links[i] }

// NumFeeds is len(rt.Feeds()); FeedAt(i) is rt.Feeds()[i].
func (rt *Runtime) NumFeeds() int { return len(rt.feeders) }
func (rt *Runtime) FeedAt(i int) Feed {
	f := rt.feeders[i]
	return Feed{Src: f.src, Count: f.count()}
}

// NumPorts is len(m.Ports()); PortAt(i) is m.Port(m.Ports()[i]).
func (m *Module) NumPorts() int      { return len(m.portNames) }
func (m *Module) PortAt(i int) *Port { return m.ports[m.portNames[i]] }

// NumInputs is len(f.Inputs()); InputAt(i) is f.In(f.Inputs()[i]).
func (f *Filter) NumInputs() int      { return len(f.inNames) }
func (f *Filter) InputAt(i int) *Port { return f.ins[f.inNames[i]] }

// NumOutputs is len(f.Outputs()); OutputAt(i) is f.Out(f.Outputs()[i]).
func (f *Filter) NumOutputs() int      { return len(f.outNames) }
func (f *Filter) OutputAt(i int) *Port { return f.outs[f.outNames[i]] }

// NumData is len(f.DataNames()); DataAt(i) is the i-th name and its
// storage.
func (f *Filter) NumData() int { return len(f.dataNames) }
func (f *Filter) DataAt(i int) (string, *filterc.Value) {
	n := f.dataNames[i]
	return n, f.data[n]
}

// NumAttrs is len(f.AttrNames()); AttrAt(i) is the i-th name and its
// storage.
func (f *Filter) NumAttrs() int { return len(f.attrNames) }
func (f *Filter) AttrAt(i int) (string, *filterc.Value) {
	n := f.attrNames[i]
	return n, f.attrs[n]
}
