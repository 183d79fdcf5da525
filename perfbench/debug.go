package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"dfdbg/internal/h264"
	"dfdbg/internal/serve"
)

// debugWL is one scripted interactive session at a time through
// serve.Manager and Session.Exec, with no TCP. Sessions hold the batched
// engine demoted ("debug client attached"), so execution is per-token.
// Each session is created, driven through the whole script, checked
// against the golden transcript, and closed.
type debugWL struct {
	params serve.SessionParams
	script []string
	golden string
	mgr    *serve.Manager
}

func newDebug(seed int64) (*debugWL, error) {
	return &debugWL{params: sessionParams(seed), script: debugScript}, nil
}

func (w *debugWL) lanes() int { return 1 }

// setup runs the golden session, reads the heap while it is alive, and
// closes it.
func (w *debugWL) setup(l *ledger) error {
	w.mgr = serve.NewManager(2, 0)
	g, err := goldenTranscript(w.mgr, w.params, w.script)
	if err != nil {
		return err
	}
	w.golden = g
	l.set("heap_mb", liveHeapMB())
	w.mgr.CloseAll()
	return nil
}

func (w *debugWL) loop(l *ledger, until time.Time, _ bool) {
	for time.Now().Before(until) {
		l.probeHost()
		w.iteration(l)
	}
}

func (w *debugWL) iteration(l *ledger) {
	t := time.Now()
	s, err := w.mgr.Create(w.params)
	d := l.span("serve.create", t)
	l.op(err)
	if err != nil {
		return
	}
	l.timing("setup_s", d.Seconds())
	l.sample("serve.create_ms", ms(d))
	var b strings.Builder
	var decode decodeTime
	for i, line := range w.script {
		t := time.Now()
		res, err := s.Exec(line)
		d := l.span("serve.exec", t)
		if verb(line) == "continue" {
			l.addDecode(&decode, d)
		}
		if err == nil {
			err = res.Err
		}
		l.command(strconv.Itoa(i), line, d, err)
		errText := ""
		if err != nil {
			errText = err.Error()
		}
		render(&b, line, res.Output, errText, res.Stop)
	}
	t = time.Now()
	if b.String() != w.golden {
		l.op(fmt.Errorf("debug transcript differs from the golden run:\n%s", firstDiff(w.golden, b.String())))
	} else {
		l.op(nil)
		l.addFrames(1, decode)
	}
	l.span("bench.verify", t)
	t = time.Now()
	s.Close("done")
	l.span("serve.close", t)
}

// probe replays the script on the benchmark's own serve-shaped stack
// (ring 1<<16, batch held, auto-checkpoint every 8 journaled commands),
// where the checkpoint and restore phases can be timed one by one.
func (w *debugWL) probe(l *ledger) {
	p := h264.Params{W: w.params.W, H: w.params.H, QP: w.params.QP, Seed: w.params.Seed}
	rc, err := serveRecipe(p)
	l.op(err)
	if err != nil {
		return
	}
	for rep := 0; rep < 2; rep++ {
		transcript, err := runProbeSession(l, rc, w.script)
		l.op(err)
		if rep == 0 {
			match := 0.0
			if transcript == w.golden {
				match = 1
			}
			l.set("probe.transcript_match", match)
		}
	}
}

// runProbeSession drives script on a session of rc the way a dfserve
// session's supervisor does, timing each checkpoint and restore phase,
// and records the world's counts as invariants when its decode finishes.
func runProbeSession(l *ledger, rc recipe, script []string) (string, error) {
	s, _, err := newSession(rc, 8)
	if err != nil {
		return "", err
	}
	defer s.close()
	var b strings.Builder
	for _, line := range script {
		if classify(line) == classReverse {
			l.sample("ckpt.journal_len", float64(s.mgr.JournalLen()))
		}
		s.clk = phaseClock{}
		t := time.Now()
		res := s.exec(line)
		d := time.Since(t)
		if classify(line) == classReverse {
			l.restoreSplit(s.clk, d)
		}
		if res.Err != nil {
			return "", fmt.Errorf("probe %q: %w", line, res.Err)
		}
		render(&b, line, res.Output, "", res.Stop)
		if res.Stop != nil && res.Stop.Reason == "program finished" {
			c := s.cur.counts()
			l.check("sim.sim_ns", c.simNS)
			l.check("pedf.tokens", c.tokens)
			l.check("pedf.firings", c.firings)
			l.check("obs.events", c.events)
			l.set("obs.dropped", float64(c.dropped))
			l.set("pedf.batched_regions", float64(c.batched))
		}
		if s.autoDue() {
			capture, encode, state, _, err := s.checkpoint("auto")
			if err != nil {
				return "", err
			}
			l.sample("ckpt.capture_ms", ms(capture))
			l.sample("ckpt.encode_ms", ms(encode))
			l.check("ckpt.state_bytes", uint64(state))
		}
	}
	l.check("ckpt.auto_checkpoints", uint64(s.auto))
	return b.String(), nil
}

func (w *debugWL) close() {
	if w.mgr != nil {
		w.mgr.CloseAll()
	}
}

// firstDiff shows the first line where two transcripts part.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var a, b string
		if i < len(wl) {
			a = wl[i]
		}
		if i < len(gl) {
			b = gl[i]
		}
		if a != b {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, a, b)
		}
	}
	return "identical"
}
