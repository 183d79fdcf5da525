package pedf

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
	out := make([]Feed, 0, len(rt.feeders))
	for _, f := range rt.feeders {
		out = append(out, Feed{Src: f.src, Count: f.count()})
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
