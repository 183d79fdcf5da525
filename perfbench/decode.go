package main

import (
	"fmt"
	"slices"
	"time"

	"dfdbg/internal/filterc"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
)

// decodeQueries are the read-only commands issued on each finished
// decode world, twice per world.
var decodeQueries = []string{
	"info filters", "info links", "info threads", "info scheduling front", "graph", "trace balance",
}

// decodeWL is the paper's intrusiveness question: a long multi-frame
// decode run to completion on dfdbg's world (obs recorder, lowdbg and
// core attached, batched regions enabled, nothing armed). Each world is
// built, checkpointed at boot, decoded with one `continue`, checked
// against the reference decoder, inspected, and rewound to boot with a
// verified `reverse-step`.
type decodeWL struct {
	rc  recipe
	ref []h264.FramePlanes
	cur *session // the world alive at the end of the loop
}

func newDecode(seed int64) (*decodeWL, error) {
	p := h264.Params{W: 32, H: 32, QP: 8, Seed: seed + 1, Frames: 8, Chroma: true}
	rc, err := soloRecipe(p)
	if err != nil {
		return nil, err
	}
	ref, err := h264.ReferenceDecodeSequence(rc.bits, p)
	if err != nil {
		return nil, err
	}
	return &decodeWL{rc: rc, ref: ref}, nil
}

func (w *decodeWL) lanes() int { return 1 }

// setup runs one unmeasured iteration, so caches fill before timing,
// and reads the heap while its world is alive.
func (w *decodeWL) setup(l *ledger) error {
	warm := newLedger()
	w.iteration(warm)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up decode: %s", warm.failures[0])
	}
	l.set("heap_mb", liveHeapMB())
	return nil
}

func (w *decodeWL) loop(l *ledger, until time.Time, _ bool) {
	for time.Now().Before(until) {
		t := time.Now()
		w.release()
		l.span("sim.shutdown", t)
		l.probeHost()
		w.iteration(l)
	}
}

func (w *decodeWL) iteration(l *ledger) {
	t0 := time.Now()
	compiles, hits := filterc.CompileTotal(), filterc.CacheHits()
	s, bt, err := newSession(w.rc, 0)
	boot := time.Since(t0)
	l.op(err)
	if err != nil {
		return
	}
	w.cur = s
	l.timing("setup_s", bt.total().Seconds())
	l.sample("pedf.build_ms", ms(bt.pedf))
	l.sample("sim.init_ms", ms(bt.init))
	l.sample("analysis.plans_ms", ms(bt.plans))
	l.addSpans(map[string]time.Duration{
		"pedf.build":     bt.pedf,
		"sim.init":       bt.init,
		"analysis.plans": bt.plans,
		"ckpt.capture":   boot - bt.total(),
	})
	l.sample("ckpt.capture_ms", ms(boot-bt.total()))
	l.set("filterc.compiles", float64(filterc.CompileTotal()-compiles))
	l.set("filterc.cache_hits", float64(filterc.CacheHits()-hits))

	// The decode: lowdbg's continue runs the kernel to completion.
	l.probeHost()
	t := time.Now()
	ev := s.cur.low.Continue()
	d := l.span("sim.run", t)
	err = nil
	if ev == nil || ev.Kind != lowdbg.StopDone {
		err = fmt.Errorf("decode stopped early: %v", ev)
	} else {
		s.mgr.Note("continue")
	}
	l.command("continue", "continue", d, err)
	l.sample("sim.run_ms", ms(d))

	t = time.Now()
	err = w.verify(s.cur)
	l.span("bench.verify", t)
	l.op(err)
	if err == nil {
		var dt decodeTime
		l.addDecode(&dt, d)
		l.addFrames(len(w.ref), dt)
	}
	c := s.cur.counts()
	l.check("sim.sim_ns", c.simNS)
	l.check("pedf.tokens", c.tokens)
	l.check("pedf.firings", c.firings)
	l.check("obs.events", c.events)
	l.set("obs.dropped", float64(c.dropped))
	l.set("pedf.batched_regions", float64(c.batched))
	if c.tokens > 0 {
		l.sample("pedf.host_ns_per_token", float64(d.Nanoseconds())/float64(c.tokens))
	}
	if cp := s.mgr.Latest(); cp != nil {
		l.check("ckpt.state_bytes", uint64(len(cp.State)))
	}

	for i := 0; i < 2; i++ {
		for _, q := range decodeQueries {
			t := time.Now()
			res := s.exec(q)
			l.command(q, q, l.span("cli.query", t), res.Err)
		}
	}

	// Rewind to boot: rebuild + empty replay + byte-compare.
	l.sample("ckpt.journal_len", float64(s.mgr.JournalLen()))
	s.clk = phaseClock{}
	l.probeHost()
	t = time.Now()
	res := s.exec("reverse-step")
	d = l.span("ckpt.restore", t)
	l.command("reverse-step", "reverse-step", d, res.Err)
	l.restoreSplit(s.clk, d)
}

// verify compares the decoded sequence with the reference decoder's.
func (w *decodeWL) verify(st *stack) error {
	got, err := st.app.OutputSequence()
	if err != nil {
		return err
	}
	if len(got) != len(w.ref) {
		return fmt.Errorf("decoded %d frames, want %d", len(got), len(w.ref))
	}
	for i := range got {
		if !slices.Equal(got[i].Y, w.ref[i].Y) || !slices.Equal(got[i].Cb, w.ref[i].Cb) ||
			!slices.Equal(got[i].Cr, w.ref[i].Cr) {
			return fmt.Errorf("frame %d differs from the reference decode", i)
		}
	}
	return nil
}

func (w *decodeWL) probe(*ledger) {}

// release shuts the live world down.
func (w *decodeWL) release() {
	if w.cur != nil {
		w.cur.close()
		w.cur = nil
	}
}

func (w *decodeWL) close() { w.release() }
