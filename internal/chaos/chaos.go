// Package chaos runs the H.264 case-study decoder under seeded fault
// plans and checks the robustness contract of the stack end to end: no
// injected fault may escape as a raw panic, every induced deadlock must
// be detected by the watchdog and explained with a wait-for report, and
// the paper's token-surgery recovery (`unstick`) must restore progress.
//
// The harness is the executable form of the chaos-smoke CI job: one
// seed, one full debugger stack, one verdict.
package chaos

import (
	"fmt"

	"dfdbg/internal/fault"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/sim"
	"dfdbg/internal/stack"
)

// Options tunes one chaos run. The zero value selects the defaults.
type Options struct {
	W, H     int          // frame size (default 16x16)
	Watchdog sim.Duration // stall threshold (default 2ms)
	Rounds   int          // max continue/recover cycles (default 50)

	// Batch enables the batched execution engine before injecting
	// faults. Because every chaos run arms a fault plan, the engine must
	// demote every region to the per-token path (DESIGN §12), so a
	// batched chaos run is required to produce the exact same Result as
	// a non-batched one — the gauntlet asserts that.
	Batch bool

	// Checkpoint runs the crash-safety gauntlet instead (DESIGN §13):
	// the run is driven through journaled CLI commands, checkpointed
	// between rounds, killed at a seeded random round, restored from the
	// last checkpoint with replay verification, and must end with a
	// fault trace and final state blob byte-identical to an
	// uninterrupted run.
	Checkpoint bool
}

// withDefaults fills in the zero-value defaults.
func (o Options) withDefaults() Options {
	if o.W == 0 {
		o.W = 16
	}
	if o.H == 0 {
		o.H = 16
	}
	if o.Watchdog == 0 {
		o.Watchdog = sim.Duration(2_000_000) // 2ms simulated
	}
	if o.Rounds == 0 {
		o.Rounds = 50
	}
	return o
}

// recipe is the chaos world. It is lazy: the faults — armed by the
// recipe here, by journaled commands in checkpoint mode — must also
// cover the framework's init phase.
func (o Options) recipe() stack.Recipe {
	r := stack.Recipe{Params: h264.Params{W: o.W, H: o.H, QP: 8, Seed: 7}, Lazy: true}
	if o.Batch {
		r.Batch = stack.BatchOn
	}
	return r
}

// Result is the verdict of one seeded chaos run.
type Result struct {
	Seed        int64
	Plan        fault.Plan
	Stalls      int      // watchdog stall stops observed
	Crashes     int      // contained filter crashes observed
	Unsticks    int      // recovery actions applied
	Rounds      int      // continue cycles consumed
	Restores    int      // checkpoint restores survived (Checkpoint mode)
	FinalStatus string   // "completed" | "crashed-contained" | "gave-up"
	Trace       []string // deterministic fault trace
}

func (r *Result) String() string {
	return fmt.Sprintf("seed %d: %s after %d round(s) (%d stall(s), %d crash(es), %d unstick action(s))",
		r.Seed, r.FinalStatus, r.Rounds, r.Stalls, r.Crashes, r.Unsticks)
}

// Run executes the decoder under the fault plan generated from seed and
// verifies the robustness contract. A violated contract — an unexplained
// stall, a recovery that does not restore progress — returns an error;
// an escaped panic propagates to the caller's test harness by design.
func Run(seed int64, o Options) (*Result, error) {
	o = o.withDefaults()
	if o.Checkpoint {
		return RunCheckpoint(seed, o)
	}

	r := o.recipe()
	r.FaultSeed, r.Watchdog = seed, o.Watchdog
	st, err := r.Build()
	if err != nil {
		return nil, err
	}
	defer st.Shutdown()
	low, d, inj := st.Low, st.D, st.K.Faults()
	plan := fault.Generate(seed, st.RT.FaultTargets())

	res := &Result{Seed: seed, Plan: plan, FinalStatus: "gave-up"}
	defer func() { res.Trace = inj.TraceStrings() }()

	for res.Rounds = 1; res.Rounds <= o.Rounds; res.Rounds++ {
		ev := low.Continue()
		d.DrainLog()
		if ev == nil || ev.Kind == lowdbg.StopDone {
			res.FinalStatus = "completed"
			return res, nil
		}
		switch ev.Kind {
		case lowdbg.StopStalled:
			res.Stalls++
			if ev.Stall == nil || len(ev.Stall.Procs) == 0 {
				return res, fmt.Errorf("seed %d: stall stop without a wait-for report", seed)
			}
			if ev.Stall.Wall {
				return res, fmt.Errorf("seed %d: wall-clock budget exceeded", seed)
			}
			acts := d.ProposeUnstick()
			if ev.Stall.Idle && len(acts) == 0 {
				return res, fmt.Errorf("seed %d: deadlock at t=%s with no recovery proposal:\n%s",
					seed, ev.Stall.Time, ev.Stall)
			}
			if len(acts) > 0 {
				n, err := d.ApplyUnstick(acts)
				d.DrainLog()
				res.Unsticks += n
				if err != nil {
					return res, fmt.Errorf("seed %d: unstick failed: %v", seed, err)
				}
			}
		case lowdbg.StopError:
			// A contained filter crash: the stack held, the process died
			// in a reportable way. The decoder may or may not be able to
			// finish without it; either outcome satisfies the contract.
			res.Crashes++
			res.FinalStatus = "crashed-contained"
			return res, nil
		default:
			// No breakpoints are set; any other stop means progress.
		}
	}
	return res, fmt.Errorf("seed %d: gave up after %d rounds (%d stalls)", seed, o.Rounds, res.Stalls)
}
