package web

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
)

// ErrReadOnly is returned by hosts that refuse command execution (the
// solo hosts attached to a foreground CLI or batch decode).
var ErrReadOnly = errors.New("web: host is read-only (commands belong to the owning process)")

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func intParam(r *http.Request, name string, def int) int {
	if s := r.URL.Query().Get(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	list := s.b.List()
	if list == nil {
		list = []SessionMeta{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": list})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var p SessionParams
	if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad params: %w", err))
		return
	}
	h, err := s.b.Create(p)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": h.ID()})
}

func (s *Server) handleServerMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.b.Metrics()
	if m == nil {
		m = []obs.MetricValue{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"metrics": m})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, h Host) {
	var m []obs.MetricValue
	err := h.Query(func(snap *Snapshot) { m = snap.Rec.Metrics.Snapshot() })
	if err != nil {
		writeErr(w, http.StatusGone, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"metrics": m})
}

// eventJSON is the wire form of one obs event.
type eventJSON struct {
	Seq   uint64 `json:"seq"`
	At    uint64 `json:"at"`
	Kind  string `json:"kind"`
	PE    int32  `json:"pe"`
	Link  int32  `json:"link"`
	Arg   int64  `json:"arg"`
	Arg2  int64  `json:"arg2"`
	Actor string `json:"actor,omitempty"`
	Other string `json:"other,omitempty"`
	Port  string `json:"port,omitempty"`
	Val   string `json:"val,omitempty"`
}

func toEventJSON(ev obs.Event, seq uint64) eventJSON {
	return eventJSON{
		Seq: seq, At: ev.At, Kind: ev.Kind.String(), PE: ev.PE,
		Link: ev.Link, Arg: ev.Arg, Arg2: ev.Arg2,
		Actor: ev.Actor, Other: ev.Other, Port: ev.Port, Val: ev.Val,
	}
}

// Window limits: default page and hard cap for one /events response.
const (
	defaultEventLimit = 500
	maxEventLimit     = 5000
)

// handleEvents serves windowed reads over the ring:
// ?since=SEQ&limit=N&kind=push,pop&actor=NAME. The response carries the
// next cursor so a poller pages with since=next.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, h Host) {
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad since: %w", err))
			return
		}
		since = n
	}
	limit := intParam(r, "limit", defaultEventLimit)
	if limit <= 0 || limit > maxEventLimit {
		limit = maxEventLimit
	}
	var kinds obs.Mask
	if ks := r.URL.Query().Get("kind"); ks != "" {
		for _, name := range strings.Split(ks, ",") {
			k, ok := obs.ParseKind(strings.TrimSpace(name))
			if !ok {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown event kind %q", name))
				return
			}
			kinds |= obs.Bit(k)
		}
	}
	actor := r.URL.Query().Get("actor")

	type resp struct {
		First   uint64      `json:"first"`
		Next    uint64      `json:"next"`
		Total   uint64      `json:"total"`
		Dropped uint64      `json:"dropped"`
		NowNS   uint64      `json:"now_ns"`
		Events  []eventJSON `json:"events"`
	}
	var out resp
	err := h.Query(func(snap *Snapshot) {
		evs, first := snap.Rec.Window(since, limit)
		out = resp{
			First: first, Next: first + uint64(len(evs)),
			Total: snap.Rec.Total(), Dropped: snap.Rec.Dropped(),
			NowNS:  snap.NowNS,
			Events: make([]eventJSON, 0, len(evs)),
		}
		for i, ev := range evs {
			if kinds != 0 && kinds&obs.Bit(ev.Kind) == 0 {
				continue
			}
			if actor != "" && ev.Actor != actor && ev.Other != actor {
				continue
			}
			out.Events = append(out.Events, toEventJSON(ev, first+uint64(i)))
		}
	})
	if err != nil {
		writeErr(w, http.StatusGone, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// handleLanes serves the per-actor swim-lane summaries (the folded
// profile's actor rows: firings, busy/blocked/idle splits).
func (s *Server) handleLanes(w http.ResponseWriter, r *http.Request, h Host) {
	type lane struct {
		Actor     string `json:"actor"`
		PE        int32  `json:"pe"`
		Firings   uint64 `json:"firings"`
		BusyNS    uint64 `json:"busy_ns"`
		BlockedNS uint64 `json:"blocked_ns"`
		IdleNS    uint64 `json:"idle_ns"`
	}
	type resp struct {
		NowNS   uint64 `json:"now_ns"`
		Events  uint64 `json:"events"`
		Dropped uint64 `json:"dropped"`
		Lanes   []lane `json:"lanes"`
	}
	var out resp
	err := h.Query(func(snap *Snapshot) {
		p := s.fold(h.ID(), snap)
		out = resp{NowNS: snap.NowNS, Events: p.Events, Dropped: p.Dropped,
			Lanes: make([]lane, 0, len(p.Actors))}
		for _, a := range p.Actors {
			out.Lanes = append(out.Lanes, lane{
				Actor: a.Name, PE: a.PE, Firings: a.Firings,
				BusyNS: a.Busy, BlockedNS: a.Blocked, IdleNS: a.Idle,
			})
		}
	})
	if err != nil {
		writeErr(w, http.StatusGone, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// graphNode is one actor in the dataflow-graph view.
type graphNode struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"` // "filter" or "controller"
	Module    string `json:"module"`
	PE        string `json:"pe"`
	State     string `json:"state"`
	BlockedOn string `json:"blocked_on,omitempty"`
	Firings   uint64 `json:"firings"`
	BlockedNS uint64 `json:"blocked_ns"`
	// Col is a topological layer assignment for client-side layout
	// (sources left, sinks right).
	Col int `json:"col"`
}

// graphLink is one link with its occupancy/backpressure rollup.
type graphLink struct {
	ID       int    `json:"id"`
	Label    string `json:"label"`
	SrcActor string `json:"src_actor"`
	SrcPort  string `json:"src_port"`
	DstActor string `json:"dst_actor"`
	DstPort  string `json:"dst_port"`
	Occ      int    `json:"occupancy"`
	Cap      int    `json:"cap"`
	PeakOcc  int64  `json:"peak_occupancy"`
	Pushes   uint64 `json:"pushes"`
	Pops     uint64 `json:"pops"`
	Drops    uint64 `json:"drops"`
	// Backpressure rollups from the event stream: simulated ns the
	// producer spent blocked on a full FIFO, and the consumer on an
	// empty one.
	ProducerBlockedNS uint64 `json:"producer_blocked_ns"`
	ConsumerBlockedNS uint64 `json:"consumer_blocked_ns"`
}

// handleGraph serves the dataflow graph with per-link
// occupancy/backpressure rollups computed from the retained events.
func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request, h Host) {
	type resp struct {
		NowNS uint64      `json:"now_ns"`
		Nodes []graphNode `json:"nodes"`
		Links []graphLink `json:"links"`
	}
	var out resp
	err := h.Query(func(snap *Snapshot) {
		out.NowNS = snap.NowNS
		out.Nodes, out.Links = buildGraph(snap.RT, snap.Rec)
	})
	if err != nil {
		writeErr(w, http.StatusGone, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// buildGraph renders the runtime's actors and links plus rollups.
func buildGraph(rt *pedf.Runtime, rec *obs.Recorder) ([]graphNode, []graphLink) {
	actors := rt.Actors()
	links := rt.Links()

	// Backpressure and peak-occupancy rollups from the retained events.
	type roll struct {
		prod, cons uint64
		peak       int64
	}
	rolls := map[int32]*roll{}
	get := func(id int32) *roll {
		rl := rolls[id]
		if rl == nil {
			rl = &roll{}
			rolls[id] = rl
		}
		return rl
	}
	rec.Range(func(ev obs.Event) bool {
		switch ev.Kind {
		case obs.KBlockEnd:
			rl := get(ev.Link)
			if strings.HasPrefix(ev.Other, "push:") {
				rl.prod += uint64(ev.Arg2)
			} else if strings.HasPrefix(ev.Other, "pop:") {
				rl.cons += uint64(ev.Arg2)
			}
		case obs.KPush, obs.KInject:
			if rl := get(ev.Link); ev.Arg > rl.peak {
				rl.peak = ev.Arg
			}
		}
		return true
	})

	idx := map[string]int{}
	nodes := make([]graphNode, 0, len(actors))
	for i, f := range actors {
		idx[f.Name] = i
		pe := ""
		if f.PE != nil {
			pe = f.PE.String()
		}
		nodes = append(nodes, graphNode{
			Name: f.Name, Kind: f.Role.String(), Module: f.Module.Name,
			PE: pe, State: f.State().String(), BlockedOn: f.BlockedOn(),
			Firings: f.Firings(), BlockedNS: f.BlockedNS(),
		})
	}
	edges := make([][2]int, 0, len(links))
	out := make([]graphLink, 0, len(links))
	for _, l := range links {
		rl := get(int32(l.ID))
		out = append(out, graphLink{
			ID: l.ID, Label: l.Label(),
			SrcActor: l.Src.ActorName, SrcPort: l.Src.Name,
			DstActor: l.Dst.ActorName, DstPort: l.Dst.Name,
			Occ: l.Occupancy(), Cap: l.Cap, PeakOcc: rl.peak,
			Pushes: l.Pushes(), Pops: l.Pops(), Drops: l.Drops(),
			ProducerBlockedNS: rl.prod, ConsumerBlockedNS: rl.cons,
		})
		si, sok := idx[l.Src.ActorName]
		di, dok := idx[l.Dst.ActorName]
		if sok && dok {
			edges = append(edges, [2]int{si, di})
		}
	}
	for i, col := range layerColumns(len(nodes), edges) {
		nodes[i].Col = col
	}
	return nodes, out
}

// layerColumns assigns each node a topological column (longest path
// from a source) via Kahn's algorithm; nodes on cycles — which never
// reach indegree zero — are placed one column right of their furthest
// processed predecessor.
func layerColumns(n int, edges [][2]int) []int {
	col := make([]int, n)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, e := range edges {
		if e[0] == e[1] {
			continue // self-loop: no layering constraint
		}
		succ[e[0]] = append(succ[e[0]], e[1])
		indeg[e[1]]++
	}
	queue := []int{}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen := make([]bool, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		seen[u] = true
		for _, v := range succ[u] {
			if col[u]+1 > col[v] {
				col[v] = col[u] + 1
			}
			if indeg[v]--; indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	// Cycle members keep whatever column their processed predecessors
	// pushed them to (0 for a pure cycle), which is deterministic.
	_ = seen
	return col
}

// handleProfile serves the folded profile (actor and PE utilisation
// plus flamegraph-style folded stacks).
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request, h Host) {
	type actorJSON struct {
		Name    string `json:"name"`
		PE      int32  `json:"pe"`
		Firings uint64 `json:"firings"`
		Busy    uint64 `json:"busy_ns"`
		Blocked uint64 `json:"blocked_ns"`
		Idle    uint64 `json:"idle_ns"`
	}
	type peJSON struct {
		ID     int32  `json:"id"`
		Actors int    `json:"actors"`
		Busy   uint64 `json:"busy_ns"`
		Idle   uint64 `json:"idle_ns"`
	}
	type resp struct {
		TotalNS uint64      `json:"total_ns"`
		Events  uint64      `json:"events"`
		Dropped uint64      `json:"dropped"`
		Actors  []actorJSON `json:"actors"`
		PEs     []peJSON    `json:"pes"`
		Folded  string      `json:"folded"`
	}
	var out resp
	err := h.Query(func(snap *Snapshot) {
		p := s.fold(h.ID(), snap)
		out = resp{TotalNS: p.Total, Events: p.Events, Dropped: p.Dropped,
			Folded: p.FoldedStacks()}
		for _, a := range p.Actors {
			out.Actors = append(out.Actors, actorJSON(a))
		}
		for _, pe := range p.PEs {
			out.PEs = append(out.PEs, peJSON(pe))
		}
	})
	if err != nil {
		writeErr(w, http.StatusGone, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// stallEdge is one wait-for edge: a blocked actor waiting on a link
// peer.
type stallEdge struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Link   int    `json:"link"`
	Label  string `json:"label"`
	Reason string `json:"reason"` // "push:port" (FIFO full) or "pop:port" (FIFO empty)
	Occ    int    `json:"occupancy"`
	Cap    int    `json:"cap"`
}

// handleStall serves the watchdog's most recent stall report. The raw
// report comes from the kernel's lock-free snapshot, so this endpoint
// answers even while a run is in flight; with resolve=1 (the default)
// it additionally joins the blocked processes against the dataflow
// graph into wait-for edges, which serializes with the kernel like any
// other query.
func (s *Server) handleStall(w http.ResponseWriter, r *http.Request, h Host) {
	type procJSON struct {
		Proc   string `json:"proc"`
		State  string `json:"state"`
		Event  string `json:"event,omitempty"`
		Frozen bool   `json:"frozen,omitempty"`
		Actor  string `json:"actor,omitempty"`
	}
	type resp struct {
		Stalled      bool        `json:"stalled"`
		AtNS         uint64      `json:"at_ns,omitempty"`
		NoProgressNS uint64      `json:"no_progress_ns,omitempty"`
		Idle         bool        `json:"idle,omitempty"`
		Wall         bool        `json:"wall,omitempty"`
		Procs        []procJSON  `json:"procs,omitempty"`
		Edges        []stallEdge `json:"edges,omitempty"`
	}
	rep := h.StallSnapshot()
	if rep == nil {
		writeJSON(w, http.StatusOK, resp{Stalled: false})
		return
	}
	out := resp{
		Stalled: true, AtNS: uint64(rep.Time),
		NoProgressNS: uint64(rep.NoProgressFor),
		Idle:         rep.Idle, Wall: rep.Wall,
	}
	for _, sp := range rep.Procs {
		out.Procs = append(out.Procs, procJSON{
			Proc: sp.Proc, State: sp.State.String(),
			Event: sp.Event, Frozen: sp.Frozen,
		})
	}
	if r.URL.Query().Get("resolve") != "0" {
		err := h.Query(func(snap *Snapshot) {
			byProc := map[string]*pedf.Filter{}
			for _, f := range snap.RT.Actors() {
				if p := f.Proc(); p != nil {
					byProc[p.Name()] = f
				}
			}
			for i, sp := range rep.Procs {
				f := byProc[sp.Proc]
				if f == nil {
					continue
				}
				out.Procs[i].Actor = f.Name
				on := f.BlockedOn()
				if on == "" {
					continue
				}
				if e, ok := waitForEdge(snap.RT, f, on); ok {
					out.Edges = append(out.Edges, e)
				}
			}
		})
		if err != nil {
			writeErr(w, http.StatusGone, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// waitForEdge resolves one actor's blocked-on reason ("pop:i" /
// "push:o") to the link and peer it is waiting for.
func waitForEdge(rt *pedf.Runtime, f *pedf.Filter, on string) (stallEdge, bool) {
	dir, port, ok := strings.Cut(on, ":")
	if !ok {
		return stallEdge{}, false
	}
	for _, l := range rt.Links() {
		switch {
		case dir == "push" && l.Src.ActorName == f.Name && l.Src.Name == port:
			return stallEdge{From: f.Name, To: l.Dst.ActorName, Link: l.ID,
				Label: l.Label(), Reason: on, Occ: l.Occupancy(), Cap: l.Cap}, true
		case dir == "pop" && l.Dst.ActorName == f.Name && l.Dst.Name == port:
			return stallEdge{From: f.Name, To: l.Src.ActorName, Link: l.ID,
				Label: l.Label(), Reason: on, Occ: l.Occupancy(), Cap: l.Cap}, true
		}
	}
	return stallEdge{}, false
}

// handleAnalyze serves the static-analysis report (diagnostics, actor
// classes, SDF regions) as JSON.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request, h Host) {
	var (
		buf    strings.Builder
		repErr error
		wired  bool
	)
	err := h.Query(func(snap *Snapshot) {
		if snap.Full == nil {
			return
		}
		wired = true
		rep, err := snap.Full()
		if err != nil {
			repErr = err
			return
		}
		repErr = rep.WriteJSON(&buf)
	})
	if err != nil {
		writeErr(w, http.StatusGone, err)
		return
	}
	if !wired {
		writeErr(w, http.StatusNotImplemented, errors.New("analysis not wired on this host"))
		return
	}
	if repErr != nil {
		writeErr(w, http.StatusInternalServerError, repErr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(buf.String()))
}

// handleBatch reports the batched-execution mode of every proven-SDF
// region (DESIGN §12): whether each region currently runs schedule-
// driven (batched) or per-token, and why it was demoted. Empty when the
// batched engine was never enabled on the session.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, h Host) {
	type resp struct {
		Regions []pedf.RegionMode `json:"regions"`
	}
	var out resp
	err := h.Query(func(snap *Snapshot) {
		if snap.RT == nil {
			return
		}
		out.Regions = snap.RT.RegionModes()
	})
	if err != nil {
		writeErr(w, http.StatusGone, err)
		return
	}
	if out.Regions == nil {
		out.Regions = []pedf.RegionMode{}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleProvenance walks backward from ?token=LINK:SEQ (production
// sequence) through the retained events. ?depth= and ?fanin= bound the
// walk.
func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request, h Host) {
	tok := r.URL.Query().Get("token")
	ls, ss, ok := strings.Cut(tok, ":")
	if !ok {
		writeErr(w, http.StatusBadRequest, errors.New("token must be LINK:SEQ (e.g. ?token=3:41)"))
		return
	}
	link, err1 := strconv.ParseInt(ls, 10, 32)
	seq, err2 := strconv.ParseInt(ss, 10, 64)
	if err1 != nil || err2 != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad token %q", tok))
		return
	}
	depth := intParam(r, "depth", 0)
	fanin := intParam(r, "fanin", 0)
	type resp struct {
		Link       int32               `json:"link"`
		Seq        int64               `json:"seq"`
		Provenance *obs.ProvenanceNode `json:"provenance"`
	}
	out := resp{Link: int32(link), Seq: seq}
	err := h.Query(func(snap *Snapshot) {
		out.Provenance = obs.TraceProvenance(snap.Rec.Snapshot(), int32(link), seq, depth, fanin)
	})
	if err != nil {
		writeErr(w, http.StatusGone, err)
		return
	}
	if out.Provenance == nil {
		writeErr(w, http.StatusNotFound,
			fmt.Errorf("no push of token %d:%d in the retained events", link, seq))
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// handleExec dispatches one debugger command line ({"line": "..."}).
// This is the single mutation path of the web layer: it reuses the
// same command dispatch the wire protocol and the REPL use.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request, h Host) {
	var req struct {
		Line string `json:"line"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
		return
	}
	res, err := h.Exec(req.Line)
	if err != nil {
		status := http.StatusGone
		if errors.Is(err, ErrReadOnly) {
			status = http.StatusForbidden
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
