package pedf

import (
	"fmt"
	"strings"

	"dfdbg/internal/obs"
)

// This file implements the batched execution engine of DESIGN §12: when
// the static analyzer proves a subgraph is consistent SDF (repetition
// vector, single-appearance schedule, buffer bounds), its actors can
// run "lazily" — statement costs accumulate on the actor instead of
// paying one kernel round-trip each, and are paid by one SleepSteps
// before every externally observable action (token push/pop, occupancy
// read, firing end). Together with the kernel's inline-sleep fast path
// this fires whole schedule periods within one dispatch while keeping
// every recorded timestamp, and the dispatch order, identical to the
// per-token engine.
//
// Eligibility is revoked — every region is "demoted" back to the
// per-token path, mid-run — while anything could observe a difference:
// a higher layer's explicit hold (the serving layer, while a debug
// client is attached), an armed fault plan (trigger indices count
// per-token), or anything armed that can stop the world mid-run. A
// lazy actor runs ahead of the clock between flush points, so a stop
// caused by any actor would show it ahead of the per-token world.

// BatchRing sizes one intra-region link ring from its proven bound.
type BatchRing struct {
	Link  int // runtime link ID
	Slots int // proven worst-case occupancy over a schedule period
}

// BatchPlan is one proven-SDF region rendered executable: which actors
// may run lazily and how to pre-size their links. Plans are produced
// from analysis.ExecPlan by the pedfgraph glue so this package keeps no
// dependency on the analyzer.
type BatchPlan struct {
	Region   int
	Actors   []string
	Schedule []string // single-appearance schedule, display form
	Rings    []BatchRing
}

// RegionMode reports the current execution mode of one planned region.
type RegionMode struct {
	Region   int      `json:"region"`
	Actors   []string `json:"actors"`
	Schedule []string `json:"schedule,omitempty"`
	Batched  bool     `json:"batched"`
	Reason   string   `json:"reason,omitempty"` // demotion reason when not batched
}

// EnableBatch installs batch plans and arms the batched engine. Plans
// whose actors cannot run lazily (native work functions, controllers,
// unknown names) are skipped — those regions simply stay on the
// per-token path. Call after Start; demotion/promotion tracking is
// wired into the debugger's and the kernel's arm watchers,
// so mode changes are automatic from here on.
func (rt *Runtime) EnableBatch(plans []BatchPlan) error {
	if !rt.started {
		return fmt.Errorf("pedf: EnableBatch before Start")
	}
	for _, plan := range plans {
		eligible := len(plan.Actors) > 0
		for _, name := range plan.Actors {
			f := rt.actors[name]
			if f == nil || f.Role != RoleFilter || f.Prog == nil {
				eligible = false
				break
			}
		}
		if !eligible {
			continue
		}
		for _, r := range plan.Rings {
			for _, l := range rt.links {
				if l.ID == r.Link {
					l.prealloc(r.Slots)
					break
				}
			}
		}
		rt.batchPlans = append(rt.batchPlans, plan)
	}
	if len(rt.batchPlans) > 0 && !rt.batchWired {
		rt.batchWired = true
		if rt.Dbg != nil {
			rt.Dbg.OnArmChange(rt.recomputeBatch)
		}
		rt.K.OnArmChange(rt.recomputeBatch)
	}
	rt.recomputeBatch()
	return nil
}

// SetBatchHold demotes every planned region with the given reason until
// cleared with an empty string. No stack.Recipe world holds; perfbench's
// hand-built world still does, so the hold goes when that world does.
func (rt *Runtime) SetBatchHold(reason string) {
	rt.batchHold = reason
	rt.recomputeBatch()
}

// BatchHold returns the active hold reason ("" when none).
func (rt *Runtime) BatchHold() string { return rt.batchHold }

// RegionModes reports the execution mode of every planned region (nil
// when EnableBatch was never called or installed nothing). All regions
// share one mode.
func (rt *Runtime) RegionModes() []RegionMode {
	var modes []RegionMode
	for _, plan := range rt.batchPlans {
		modes = append(modes, RegionMode{
			Region:   plan.Region,
			Actors:   plan.Actors,
			Schedule: plan.Schedule,
			Batched:  rt.batchReason == "",
			Reason:   rt.batchReason,
		})
	}
	return modes
}

// demoteReason names why every planned region must run per-token, or
// returns "" when they may run batched.
func (rt *Runtime) demoteReason() string {
	switch {
	case rt.batchHold != "":
		return rt.batchHold
	case rt.K.Faults() != nil:
		return "fault plan armed"
	case rt.K.Watchdog() > 0:
		return "watchdog armed"
	case rt.K.WallBudget() > 0:
		return "wall budget armed"
	case rt.Dbg != nil:
		return rt.Dbg.StopReason()
	}
	return ""
}

// recomputeBatch re-derives the regions' mode from the current hold,
// kernel and debugger state, applies it to the actors, and emits one
// KBatchMode event per region whose mode was not yet recorded. It runs
// world-stopped, or inside a hook when a temporary breakpoint or
// one-shot catchpoint removes itself, so no other process runs and flag
// flips are race-free; parked lazy actors provably hold no unflushed
// time (they only yield at flush points).
func (rt *Runtime) recomputeBatch() {
	if len(rt.batchPlans) == 0 {
		return
	}
	if reason := rt.demoteReason(); reason != rt.batchReason {
		rt.batchReason, rt.batchShown = reason, 0
	}
	for _, plan := range rt.batchPlans {
		for _, name := range plan.Actors {
			if f := rt.actors[name]; f != nil {
				f.lazy = rt.batchReason == ""
			}
		}
	}
	changed := rt.RegionModes()[rt.batchShown:]
	rt.batchShown = len(rt.batchPlans)
	if rec := rt.K.Observer(); rec.Wants(obs.KBatchMode) && len(changed) > 0 {
		// Mode flips arrive in bursts (every region at once); compose
		// them in the recorder's arena and commit in one call.
		evs := rec.Scratch(len(changed))
		for i, c := range changed {
			b := int64(0)
			if c.Batched {
				b = 1
			}
			evs[i] = obs.Event{
				At: uint64(rt.K.Now()), Kind: obs.KBatchMode, PE: -1,
				Arg: int64(c.Region), Arg2: b,
				Actor: strings.Join(c.Actors, ","), Other: c.Reason,
			}
		}
		rec.RecordBatch(evs)
	}
}
