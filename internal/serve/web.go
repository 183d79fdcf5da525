package serve

import (
	"net/http"

	"dfdbg/internal/analysis"
	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
	"dfdbg/internal/stack"
	"dfdbg/internal/web"
)

// The web adapter: dfserve's sessions exposed through internal/web's
// Backend/Host interfaces. Queries are closures run by Session.do, so
// they serialize onto the session goroutine like every command; the
// two lock-free escapes (stall snapshots, the live event tap) go
// through the session's atomic pointers and stay valid-or-nil across
// teardown.

// WebBackend adapts the manager for web.NewServer.
func (m *Manager) WebBackend() web.Backend { return &webBackend{mgr: m} }

type webBackend struct{ mgr *Manager }

func (b *webBackend) List() []web.SessionMeta {
	infos := b.mgr.List()
	out := make([]web.SessionMeta, 0, len(infos))
	for _, in := range infos {
		out = append(out, web.SessionMeta{
			ID:       in.ID,
			Params:   webParams(in.Params),
			Busy:     in.Busy,
			Commands: in.Commands,
			Clients:  in.Clients,
		})
	}
	return out
}

func (b *webBackend) Open(id string) (web.Host, error) {
	s, err := b.mgr.Get(id)
	if err != nil {
		return nil, err
	}
	return &webHost{s: s}, nil
}

func (b *webBackend) Create(p web.SessionParams) (web.Host, error) {
	s, err := b.mgr.Create(SessionParams{W: p.W, H: p.H, QP: p.QP, Seed: p.Seed, Bug: p.Bug})
	if err != nil {
		return nil, err
	}
	return &webHost{s: s}, nil
}

func (b *webBackend) Metrics() []obs.MetricValue { return b.mgr.Registry().Snapshot() }

func webParams(p SessionParams) web.SessionParams {
	return web.SessionParams{W: p.W, H: p.H, QP: p.QP, Seed: p.Seed, Bug: p.Bug}
}

// webHost is one session behind the web.Host interface.
type webHost struct{ s *Session }

func (h *webHost) ID() string { return h.s.ID }

func (h *webHost) Query(fn func(*web.Snapshot)) error {
	_, err := h.s.do(func(st *stack.Stack) any {
		snap := &web.Snapshot{
			Rec:   st.Rec,
			NowNS: uint64(st.K.Now()),
			RT:    st.RT,
			Stall: st.K.LastStall(),
		}
		if full := st.CLI.Full; full != nil {
			snap.Full = func() (*analysis.Report, error) {
				rep, _, err := full()
				return rep, err
			}
		}
		fn(snap)
		return nil
	})
	return err
}

func (h *webHost) StallSnapshot() *sim.StallReport {
	if k := h.s.kPtr.Load(); k != nil {
		return k.StallSnapshot()
	}
	return nil
}

func (h *webHost) Exec(line string) (web.ExecResult, error) {
	res, err := h.s.Exec(line)
	if err != nil {
		return web.ExecResult{}, err
	}
	out := web.ExecResult{Output: res.Output, Quit: res.Quit}
	if res.Err != nil {
		out.Err = res.Err.Error()
	}
	return out, nil
}

// Stream wires st into the session's broadcaster (live obs events via
// the recorder tap) and its subscriber set (stop/close notifications).
func (h *webHost) Stream(st *web.Stream) (func(), error) {
	bc, err := h.s.webBroadcaster()
	if err != nil {
		return nil, err
	}
	cancel := bc.Subscribe(st)
	sub := &webSub{st: st}
	h.s.Subscribe(sub)
	return func() {
		h.s.Unsubscribe(sub)
		cancel()
	}, nil
}

// webSub forwards the session's protocol events (stop, session-closed)
// onto a web stream as notes.
type webSub struct{ st *web.Stream }

func (w *webSub) Deliver(ev Event) { w.st.PushNote(ev.Event, ev) }

// webBroadcaster lazily creates the session's fan-out over the
// recorder tap.
func (s *Session) webBroadcaster() (*web.Broadcaster, error) {
	s.webMu.Lock()
	defer s.webMu.Unlock()
	select {
	case <-s.done:
		return nil, ErrSessionClosed
	default:
	}
	if s.webBC == nil {
		s.webBC = web.NewBroadcaster(func(fn func(obs.Event, uint64)) {
			if rec := s.recPtr.Load(); rec != nil {
				rec.SetTap(fn)
			}
		})
	}
	return s.webBC, nil
}

// WebHandler returns the HTTP observability layer over this server's
// sessions (JSON APIs, SSE stream, embedded UI). Mount it on its own
// listener: the wire protocol stays newline-JSON over raw TCP.
func (s *Server) WebHandler() http.Handler {
	return web.NewServer(s.mgr.WebBackend()).Handler()
}
