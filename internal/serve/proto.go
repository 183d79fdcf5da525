// Package serve implements the headless multi-session debug server:
// many concurrent debug sessions, each wrapping its own simulation
// kernel and H.264 case-study application, behind a newline-delimited
// JSON wire protocol.
//
// The paper's debugger is one interactive GDB session bolted to one
// PEDF run. Here the engine is split from the terminal: internal/cli
// dispatches commands as a pure API (command line in, structured
// Result out), a Session owns one kernel on one goroutine, a Manager
// hosts many sessions with limits and idle reaping, and the Server
// speaks the wire protocol so any number of clients can attach,
// script and replay sessions concurrently.
//
// Wire protocol (one JSON object per line, both directions):
//
//	→ {"id":1,"op":"new","params":{"w":16,"h":16,"qp":8,"seed":7}}
//	← {"id":1,"ok":true,"session":"s1"}
//	→ {"id":2,"op":"exec","session":"s1","line":"continue"}
//	← {"id":2,"ok":true,"session":"s1","output":"...","stop":{...}}
//	← {"event":"stop","session":"s1","stop":{...}}        (async, attached clients)
//
// Ops: new, attach, detach, exec, complete, list, kill, metrics, ping,
// checkpoint, checkpoints, restore. The checkpoint ops are sugar over
// exec ("checkpoint [label]" / "restore [id]"); "checkpoints" returns
// the structured list. Responses carry the request id; asynchronous
// events carry an "event" key instead. Commands on one connection are
// handled in order; open more connections for client-side concurrency.
//
// Both tiers frame the protocol with the same two types: Endpoint, the
// server end every dfserve and dfrouter connection runs, and Client, the
// client end of the router's worker connections, fleetcheck and the
// tests.
//
// Fleet ops (DESIGN §14) speak the same protocol: "new" accepts an
// explicit session id (the router assigns fleet-unique ids), "export"
// seals a session into a DFCK migration container and retires it,
// "import" revives a container under its original id with replay
// verification, and "drain" stops session admission and returns the
// live sessions a router should migrate off this worker.
//
// Crash-safe supervision (DESIGN §13): a session that crashes — an
// induced `fault panic`, or a Go panic inside a command — is restored
// from its last good checkpoint with replay verification; attached
// clients see a "session-recovered" event naming the checkpoint. A
// manual restore/reverse-step/reverse-continue emits "restored".
package serve

import (
	"dfdbg/internal/ckpt"
	"dfdbg/internal/cli"
	"dfdbg/internal/obs"
)

// Request is one client → server message.
type Request struct {
	ID      int64          `json:"id"`
	Op      string         `json:"op"`
	Session string         `json:"session,omitempty"`
	Line    string         `json:"line,omitempty"`
	Label   string         `json:"label,omitempty"` // checkpoint op: checkpoint label
	Params  *SessionParams `json:"params,omitempty"`

	// Fleet ops. Worker names the drain target on a router's "drain"
	// op; Container carries the DFCK migration container (base64 on the
	// wire) on "import".
	Worker    string `json:"worker,omitempty"`
	Container []byte `json:"container,omitempty"`
}

// SessionParams configures the application a new session debugs (the
// H.264 case-study decoder). Zero values take the dfdbg defaults.
type SessionParams struct {
	W    int    `json:"w,omitempty"`
	H    int    `json:"h,omitempty"`
	QP   int    `json:"qp,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	Bug  string `json:"bug,omitempty"`
}

// withDefaults fills zero fields with the dfdbg flag defaults.
func (p SessionParams) withDefaults() SessionParams {
	if p.W == 0 {
		p.W = 32
	}
	if p.H == 0 {
		p.H = 32
	}
	if p.QP == 0 {
		p.QP = 8
	}
	if p.Seed == 0 {
		p.Seed = 7
	}
	if p.Bug == "" {
		p.Bug = "none"
	}
	return p
}

// Response is one server → client reply, matched to its Request by ID.
type Response struct {
	ID      int64  `json:"id"`
	OK      bool   `json:"ok"`
	Error   string `json:"error,omitempty"`
	Session string `json:"session,omitempty"`

	// exec results
	Output string        `json:"output,omitempty"`
	Stop   *cli.StopInfo `json:"stop,omitempty"`
	Done   bool          `json:"done,omitempty"` // the session quit

	// op-specific payloads
	Sessions    []SessionInfo     `json:"sessions,omitempty"`    // list, drain
	Metrics     []obs.MetricValue `json:"metrics,omitempty"`     // metrics
	Completions []string          `json:"completions,omitempty"` // complete
	Checkpoints []ckpt.Info       `json:"checkpoints,omitempty"` // checkpoints

	// Fleet payloads: ping and drain identify the worker by its fleet
	// name, export returns the session's recipe and DFCK migration
	// container, and the router's fleet op returns worker rows.
	Worker    string         `json:"worker,omitempty"`    // ping, drain
	Params    *SessionParams `json:"params,omitempty"`    // export
	Container []byte         `json:"container,omitempty"` // export
	Workers   []WorkerInfo   `json:"workers,omitempty"`   // fleet (router)
}

// WorkerInfo is one dfserve worker's row in a router fleet summary.
type WorkerInfo struct {
	Name     string `json:"name"`
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	Sessions int    `json:"sessions"`
}

// Event is one asynchronous server → client message, delivered to every
// client attached to the session it concerns.
type Event struct {
	// Event names the kind: hello, stop, restored, session-recovered,
	// session-closed, dropped, goodbye, draining (worker-wide: SIGTERM
	// asked this worker to shed its sessions), session-migrated (router:
	// the session now lives on another worker; Reason is "old -> new").
	Event   string        `json:"event"`
	Session string        `json:"session,omitempty"`
	Stop    *cli.StopInfo `json:"stop,omitempty"`
	Reason  string        `json:"reason,omitempty"`
	Dropped uint64        `json:"dropped,omitempty"` // events lost to backpressure
	// Checkpoint names the checkpoint a session-recovered event was
	// restored from.
	Checkpoint *ckpt.Info `json:"checkpoint,omitempty"`
}

// SessionInfo is one session's row in a list response.
type SessionInfo struct {
	ID       string        `json:"id"`
	Params   SessionParams `json:"params"`
	Busy     bool          `json:"busy"` // a command is executing right now
	Commands uint64        `json:"commands"`
	IdleNS   int64         `json:"idle_ns"` // wall ns since the last command
	Clients  int           `json:"clients"` // attached subscribers
}
