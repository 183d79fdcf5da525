package main

import (
	"fmt"
	"io"
	"time"

	"dfdbg/internal/analysis"
	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/ckpt"
	"dfdbg/internal/cli"
	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
	"dfdbg/internal/trace"
)

// recipe is how the benchmark assembles one debugger world from the
// packages' public APIs. Two settings reproduce the program's own
// stacks: soloRecipe is `dfdbg`'s REPL world and serveRecipe a dfserve
// session's. Restore rebuilds from the same recipe, so both worlds of a
// restore compare byte for byte.
type recipe struct {
	p      h264.Params
	bits   []byte
	ring   int    // obs ring size
	preRun bool   // install the pre-run static analysis
	hold   string // batch hold reason; "" leaves batched regions enabled
}

// soloRecipe mirrors cmd/dfdbg: ring 4096, pre-run analysis, batched
// regions enabled. The input is a multi-frame sequence.
func soloRecipe(p h264.Params) (recipe, error) {
	bits, err := h264.EncodeSequence(h264.GenerateSequence(p), p)
	return recipe{p: p, bits: bits, ring: 4096, preRun: true}, err
}

// serveRecipe mirrors a dfserve session: ring 1<<16, no pre-run pass,
// batched regions held demoted because a debug client is attached.
func serveRecipe(p h264.Params) (recipe, error) {
	bits, err := h264.Encode(h264.GenerateFrame(p), p)
	return recipe{p: p, bits: bits, ring: 1 << 16, hold: "debug client attached"}, err
}

// buildTimes splits one build into the layers it calls.
type buildTimes struct {
	pedf  time.Duration // kernel + runtime + h264.BuildVariant + Start
	init  time.Duration // Kernel.RunUntil(0): framework init, pre-run analysis
	plans time.Duration // pedfgraph.EnableBatch: analysis + batch plans
}

func (b buildTimes) total() time.Duration { return b.pedf + b.init + b.plans }

// phaseClock accumulates the restore phases a ckpt.Manager drives
// through the BuildFunc and Target wrappers.
type phaseClock struct {
	build, replay, capture time.Duration
}

// stack is one world. It is the ckpt.Target the manager rebuilds.
type stack struct {
	k    *sim.Kernel
	orec *obs.Recorder
	m    *mach.Machine
	rt   *pedf.Runtime
	low  *lowdbg.Debugger
	c    *cli.CLI
	app  *h264.App
	clk  *phaseClock // nil: untimed
}

func (st *stack) ReplayExec(line string) {
	t0 := time.Now()
	st.c.Dispatch(line)
	if st.clk != nil {
		st.clk.replay += time.Since(t0)
	}
}

func (st *stack) CaptureState() ([]byte, error) {
	t0 := time.Now()
	b, err := ckpt.CaptureStack(st.k, st.m, st.rt, st.orec)
	if st.clk != nil {
		st.clk.capture += time.Since(t0)
	}
	return b, err
}

func (st *stack) Shutdown() { _ = st.k.Shutdown() }

// build assembles the world: kernel, obs recorder, lowdbg + core
// attached, machine, runtime, the H.264 decoder over rc.bits, framework
// initialization, and the batched engine.
func (rc recipe) build() (*stack, buildTimes, error) {
	var bt buildTimes
	t0 := time.Now()
	k := sim.NewKernel()
	orec := obs.NewRecorder(rc.ring)
	k.SetObserver(orec)
	low := lowdbg.New(k, dbginfo.NewTable())
	rec := trace.Attach(low)
	d := core.Attach(low)
	m := mach.New(k, mach.Config{})
	rt := pedf.NewRuntime(k, m, low)
	app, err := h264.BuildVariant(rt, rc.p, rc.bits, h264.BugNone)
	if err != nil {
		return nil, bt, err
	}
	if err := rt.Start(); err != nil {
		return nil, bt, err
	}
	if rc.preRun {
		pedfgraph.InstallPreRun(k, rt, "h264", io.Discard)
	}
	t1 := time.Now()
	bt.pedf = t1.Sub(t0)
	if _, err := k.RunUntil(0); err != nil {
		_ = k.Shutdown()
		return nil, bt, err
	}
	t2 := time.Now()
	bt.init = t2.Sub(t1)
	c := cli.New(d, io.Discard)
	c.Rec = rec
	c.Obs = orec
	c.Targets = rt.FaultTargets()
	c.Full = func() (*analysis.Report, *analysis.Graph, error) {
		return pedfgraph.Analyze(rt, "h264")
	}
	if _, err := pedfgraph.EnableBatch(rt, "h264"); err != nil {
		_ = k.Shutdown()
		return nil, bt, err
	}
	if rc.hold != "" {
		rt.SetBatchHold(rc.hold)
	}
	c.Batch = func() (string, []pedf.RegionMode) {
		return rt.BatchHold(), rt.RegionModes()
	}
	bt.plans = time.Since(t2)
	return &stack{k: k, orec: orec, m: m, rt: rt, low: low, c: c, app: app}, bt, nil
}

// session is a stack driven the way the program drives one: a ckpt
// manager journals successful state-mutating lines, checkpoints every
// `every` of them (0: only the boot checkpoint), and the CLI's
// reverse/restore commands rebuild through the manager.
type session struct {
	mgr   *ckpt.Manager
	cur   *stack
	swap  *stack
	every int
	since int
	clk   phaseClock
	auto  int // auto-checkpoints taken
}

// newSession builds the first world and takes the boot checkpoint.
func newSession(rc recipe, every int) (*session, buildTimes, error) {
	s := &session{every: every}
	st, bt, err := rc.build()
	if err != nil {
		return nil, bt, err
	}
	s.mgr = ckpt.NewManager(func() (ckpt.Target, error) {
		t0 := time.Now()
		ns, _, err := rc.build()
		s.clk.build += time.Since(t0)
		if err != nil {
			return nil, err
		}
		ns.clk = &s.clk
		return ns, nil
	})
	s.adopt(st)
	if _, err := s.mgr.Capture(st, "boot", uint64(st.k.Now()), 0); err != nil {
		st.Shutdown()
		return nil, bt, err
	}
	return s, bt, nil
}

// adopt makes st the live world and wires the checkpoint commands.
func (s *session) adopt(st *stack) {
	st.clk = &s.clk
	s.cur = st
	stage := func(t ckpt.Target) { s.swap = t.(*stack) }
	st.c.Ckpt = &cli.CkptHooks{
		Save: func(label string) (ckpt.Info, error) {
			cp, err := s.mgr.Capture(s.cur, label, uint64(s.cur.k.Now()), 0)
			if err != nil {
				return ckpt.Info{}, err
			}
			return cp.Info(), nil
		},
		List: s.mgr.List,
		Restore: func(id int) (ckpt.Info, error) {
			cp := s.mgr.Latest()
			if id != 0 {
				cp = s.mgr.Find(id)
			}
			if cp == nil {
				return ckpt.Info{}, fmt.Errorf("no such checkpoint")
			}
			t, err := s.mgr.Restore(cp)
			if err != nil {
				return ckpt.Info{}, err
			}
			stage(t)
			return cp.Info(), nil
		},
		ReverseStep: func() error {
			t, err := s.mgr.ReverseStep()
			if err != nil {
				return err
			}
			stage(t)
			return nil
		},
		ReverseContinue: func() (ckpt.Info, error) {
			t, err := s.mgr.ReverseContinue()
			if err != nil {
				return ckpt.Info{}, err
			}
			stage(t)
			return s.mgr.Latest().Info(), nil
		},
	}
}

// exec dispatches one line, journals it after success, and adopts a
// world a restore-class command staged. The caller takes the periodic
// checkpoint (autoDue, checkpoint) so it can time it.
func (s *session) exec(line string) cli.Result {
	res := s.cur.c.Dispatch(line)
	if res.Err == nil && ckpt.Journaled(line) {
		s.mgr.Note(line)
		s.since++
	}
	if ns := s.swap; ns != nil {
		s.swap = nil
		old := s.cur
		s.adopt(ns)
		if old != ns {
			old.Shutdown()
		}
	}
	return res
}

// autoDue reports whether the periodic checkpoint is due.
func (s *session) autoDue() bool { return s.every > 0 && s.since >= s.every }

// checkpoint captures the live world and encodes it in container form,
// returning both durations and the blob sizes.
func (s *session) checkpoint(label string) (capture, encode time.Duration, state, container int, err error) {
	t0 := time.Now()
	cp, err := s.mgr.Capture(s.cur, label, uint64(s.cur.k.Now()), 0)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	t1 := time.Now()
	n := len(cp.Encode())
	s.since = 0
	s.auto++
	return t1.Sub(t0), time.Since(t1), len(cp.State), n, nil
}

func (s *session) close() {
	if s.cur != nil {
		s.cur.Shutdown()
	}
}

// counts are a world's deterministic work counts.
type counts struct {
	tokens, firings, simNS, events, dropped uint64
	batched                                 int // regions running batched
}

func (st *stack) counts() counts {
	var c counts
	for _, l := range st.rt.Links() {
		c.tokens += l.Pushes()
	}
	for _, f := range st.rt.Actors() {
		c.firings += f.Firings()
	}
	c.simNS = uint64(st.k.Now())
	c.events = st.orec.Total()
	c.dropped = st.orec.Dropped()
	for _, r := range st.rt.RegionModes() {
		if r.Batched {
			c.batched++
		}
	}
	return c
}
