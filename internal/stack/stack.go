// Package stack assembles the debugger world every client drives: the
// simulation kernel, the obs recorder, the two debugger levels, the
// P2012 machine, the PEDF runtime with the H.264 case study on it, and
// a CLI over it all (DESIGN §3, "The stack recipe").
//
// A world is described by a plain-data Recipe and built by
// Recipe.Build. Checkpoint restore rebuilds a world from its recipe and
// byte-compares the result against the checkpoint, so everything that
// shapes the world's state must live in the recipe, resolved once: a
// rebuild reads no flags, files or clocks. A Session drives one live
// world through checkpoints, restores and reverse execution for every
// program that hosts a debug session.
package stack

import (
	"io"
	"sync"

	"dfdbg/internal/analysis"
	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/ckpt"
	"dfdbg/internal/cli"
	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/fault"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// AppName names the application every recipe builds, as the analyzer
// and the batched engine see it.
const AppName = "h264"

// Batch selects how a world uses the batched execution engine
// (DESIGN §12).
type Batch int

const (
	// BatchOff keeps every actor on the per-token path.
	BatchOff Batch = iota
	// BatchOn runs proven-SDF regions schedule-driven whenever nothing
	// that can stop the run is armed (pedf.Runtime's demotion list).
	BatchOn
)

// Recipe is the plain-data description of one world. Building the same
// recipe twice yields byte-identical captured state.
type Recipe struct {
	// Params shapes the synthetic sequence the world decodes: frame
	// size, quantizer, content seed, frame count and chroma.
	Params h264.Params
	Bug    h264.Bug

	// Ring is the obs event ring capacity; 0 installs no recorder.
	Ring int
	// Payloads renders token values into the ring, which the CLI's
	// `trace` views print. It needs a Ring.
	Payloads bool
	// LinkCap overrides the FIFO depth of every link (0: the default).
	LinkCap int
	Batch   Batch

	// PreRun, when set, receives the static analysis warnings printed
	// just before the first dispatch (DESIGN §11).
	PreRun io.Writer
	// HostFiles grants the CLI of every world built from the recipe the
	// host's files (cli.CLI.HostFiles), rebuilt worlds included, so a
	// journaled `fault load` replays. Served worlds leave it off.
	HostFiles bool

	// Faults arms a fault plan; FaultSeed, when Faults is nil, arms the
	// plan generated from that seed over the world's targets. Watchdog
	// arms the progress watchdog (0: off).
	Faults    *fault.Plan
	FaultSeed int64
	Watchdog  sim.Duration

	// Lazy leaves the framework's initialization phase to the first
	// continue instead of running it during Build, so faults armed
	// after Build (a journaled `fault gen`) also cover it. A lazy world
	// has no reconstructed graph until then.
	Lazy bool
}

// Stack is one built world. It is the ckpt.Target the checkpoint
// manager rebuilds during restore and reverse execution.
type Stack struct {
	K   *sim.Kernel
	Rec *obs.Recorder // nil when the recipe's Ring is 0
	M   *mach.Machine
	RT  *pedf.Runtime
	Low *lowdbg.Debugger
	D   *core.Debugger
	CLI *cli.CLI
	App *h264.App
}

// Build assembles the world in the paper's order: the debugger attaches
// before the framework's initialization phase runs, so the dataflow
// graph is reconstructed from the intercepted init calls.
func (r Recipe) Build() (*Stack, error) {
	k := sim.NewKernel()
	var rec *obs.Recorder
	if r.Ring > 0 {
		rec = obs.NewRecorder(r.Ring)
		rec.SetPayloads(r.Payloads)
		k.SetObserver(rec)
	}
	low := lowdbg.New(k, dbginfo.NewTable())
	d := core.Attach(low)
	m := mach.New(k, mach.Config{})
	rt := pedf.NewRuntime(k, m, low)
	if r.LinkCap > 0 {
		rt.LinkCap = r.LinkCap
	}
	st := &Stack{K: k, Rec: rec, M: m, RT: rt, Low: low, D: d}
	fail := func(err error) (*Stack, error) {
		st.Shutdown()
		return nil, err
	}
	bits, err := encoded(r.Params)
	if err != nil {
		return fail(err)
	}
	if st.App, err = h264.BuildVariant(rt, r.Params, bits, r.Bug); err != nil {
		return fail(err)
	}
	if err := rt.Start(); err != nil {
		return fail(err)
	}
	if rec != nil {
		pedfgraph.RegisterMetrics(rec.Metrics)
	}
	switch {
	case r.Faults != nil:
		k.SetFaults(fault.NewInjector(*r.Faults))
	case r.FaultSeed != 0:
		k.SetFaults(fault.NewInjector(fault.Generate(r.FaultSeed, rt.FaultTargets())))
	}
	if r.Watchdog > 0 {
		k.SetWatchdog(r.Watchdog)
	}
	if r.PreRun != nil {
		pedfgraph.InstallPreRun(k, rt, AppName, r.PreRun)
	}
	if !r.Lazy {
		if _, err := k.RunUntil(0); err != nil {
			return fail(err)
		}
	}
	c := cli.New(d, io.Discard)
	c.Obs = rec
	c.Targets = rt.FaultTargets()
	c.HostFiles = r.HostFiles
	c.Full = func() (*analysis.Report, *analysis.Graph, error) {
		return pedfgraph.Analyze(rt, AppName)
	}
	if r.Batch != BatchOff {
		if _, err := pedfgraph.EnableBatch(rt, AppName); err != nil {
			return fail(err)
		}
		c.Batch = func() (string, []pedf.RegionMode) {
			return "", rt.RegionModes()
		}
	}
	st.CLI = c
	return st, nil
}

// bitsMemoCap bounds the process-wide bitstream memo; past the bound an
// arbitrary entry is evicted.
const bitsMemoCap = 64

// bitsMemo holds each Params' encoded sequence. Nothing downstream
// writes to a bitstream (pedf.Runtime.FeedBytes makes each token as it
// pushes it, and h264.App.Bits is only decoded), so every world built
// from one Params shares one slice.
var bitsMemo = struct {
	sync.Mutex
	m map[h264.Params][]byte
}{m: make(map[h264.Params][]byte)}

// encoded returns the bitstream a world with params p decodes, encoding
// it on the process's first build of p.
func encoded(p h264.Params) ([]byte, error) {
	bitsMemo.Lock()
	bits, ok := bitsMemo.m[p]
	bitsMemo.Unlock()
	if ok {
		return bits, nil
	}
	bits, err := h264.EncodeSequence(h264.GenerateSequence(p), p)
	if err != nil {
		return nil, err
	}
	bitsMemo.Lock()
	if len(bitsMemo.m) >= bitsMemoCap {
		for old := range bitsMemo.m {
			delete(bitsMemo.m, old)
			break
		}
	}
	bitsMemo.m[p] = bits
	bitsMemo.Unlock()
	return bits, nil
}

// Target is Build in the shape of a ckpt.BuildFunc.
func (r Recipe) Target() (ckpt.Target, error) {
	st, err := r.Build()
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (st *Stack) ReplayExec(line string) { st.CLI.Dispatch(line) }

func (st *Stack) CaptureState() ([]byte, error) {
	return ckpt.CaptureStack(st.K, st.M, st.RT, st.Rec)
}

// Shutdown unwinds the kernel's processes and then releases the obs
// recorder, whose storage the next world's recorder reuses (DESIGN §6).
// It is the one place a retired world gives its storage back: nothing
// may read the stack's recorder afterwards.
func (st *Stack) Shutdown() {
	_ = st.K.Shutdown()
	st.Rec.Release()
}

// Full runs the whole-program static analysis over the world.
func (st *Stack) Full() (*analysis.Report, error) {
	rep, _, err := pedfgraph.Analyze(st.RT, AppName)
	return rep, err
}
