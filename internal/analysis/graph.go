package analysis

import "dfdbg/internal/analysis/absint"

// The analyzer's graph model. Both the runtime-reconstructed core model
// and the elaborated PEDF runtime convert into this neutral form, so the
// graph checkers have a single implementation.

// RateUnknown marks a port whose per-firing token rate is not proven
// constant: the abstract interpreter's universal pass (absint pass A)
// found it varying with token values or persistent state, or there is
// no bytecode to prove it from (a native Go actor, or the debugger's
// reconstructed model). The rate checks stay silent on such ports.
const RateUnknown = absint.RateUnknown

// NoFeed marks a link that is not an environment feeder.
const NoFeed = -1

// Graph is a dataflow application graph under analysis.
type Graph struct {
	Name   string
	Actors []*ActorNode
	Links  []*LinkEdge
}

// ActorNode is one actor (filter, controller or environment process).
type ActorNode struct {
	Name     string
	Kind     string // "filter", "controller", "env"
	Module   string
	Behavior string // "", "map", "splitter", "joiner"
	Ins      []*PortInfo
	Outs     []*PortInfo
}

// PortInfo is one connection endpoint on an actor.
type PortInfo struct {
	Actor    *ActorNode
	Name     string
	Dir      string // "input" or "output"
	Type     string
	Rate     int  // tokens per firing; RateUnknown when dynamic
	External bool // aliased to an enclosing module's external port: may legitimately dangle
	Link     *LinkEdge
}

// Qualified returns the "actor::port" display name.
func (p *PortInfo) Qualified() string { return p.Actor.Name + "::" + p.Name }

// LinkEdge is one FIFO link between two ports.
type LinkEdge struct {
	ID            int64
	Src           *PortInfo
	Dst           *PortInfo
	Kind          string // "data", "control", "dma"
	InitialTokens int    // tokens present before the first firing
	Cap           int    // FIFO capacity (0: unknown)
	FeedTokens    int    // tokens the environment will push in total; NoFeed otherwise
}

// NewGraph creates an empty graph.
func NewGraph(name string) *Graph { return &Graph{Name: name} }

// AddActor appends an actor node.
func (g *Graph) AddActor(name, kind, module string) *ActorNode {
	a := &ActorNode{Name: name, Kind: kind, Module: module}
	g.Actors = append(g.Actors, a)
	return a
}

// AddIn declares an input port with the given static rate.
func (a *ActorNode) AddIn(name, typ string, rate int) *PortInfo {
	p := &PortInfo{Actor: a, Name: name, Dir: "input", Type: typ, Rate: rate}
	a.Ins = append(a.Ins, p)
	return p
}

// AddOut declares an output port with the given static rate.
func (a *ActorNode) AddOut(name, typ string, rate int) *PortInfo {
	p := &PortInfo{Actor: a, Name: name, Dir: "output", Type: typ, Rate: rate}
	a.Outs = append(a.Outs, p)
	return p
}

// Connect links an output port to an input port.
func (g *Graph) Connect(src, dst *PortInfo, kind string) *LinkEdge {
	l := &LinkEdge{ID: int64(len(g.Links)), Src: src, Dst: dst, Kind: kind, FeedTokens: NoFeed}
	src.Link = l
	dst.Link = l
	g.Links = append(g.Links, l)
	return l
}
