package dfdbg

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/ckpt/wire"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/fault"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// batchPlansFor analyzes the decoder once on a throwaway instance and
// returns the (plain-data) batch plans, reusable across kernels.
func batchPlansFor(t testing.TB, p h264.Params, bits []byte) []pedf.BatchPlan {
	t.Helper()
	k := sim.NewKernel()
	rt := pedf.NewRuntime(k, mach.New(k, mach.Config{}), nil)
	if _, err := h264.Build(rt, p, bits, false); err != nil {
		t.Fatal(err)
	}
	plans, err := pedfgraph.BatchPlans(rt, "h264")
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no batchable region found in the decoder")
	}
	return plans
}

// batchDecode runs the multi-frame decoder under a full-payload observer,
// optionally with the batched engine enabled, and returns the decoded
// sequence, the per-link traffic rendering, the recorded event trace,
// and the final simulated time.
func batchDecode(t *testing.T, p h264.Params, bits []byte,
	plans []pedf.BatchPlan) (string, string, []obs.Event, sim.Time) {
	t.Helper()
	k := sim.NewKernel()
	rec := obs.NewRecorder(1 << 21)
	rec.SetPayloads(true)
	k.SetObserver(rec)
	m := mach.New(k, mach.Config{})
	rt := pedf.NewRuntime(k, m, nil)
	app, err := h264.Build(rt, p, bits, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if plans != nil {
		if err := rt.EnableBatch(plans); err != nil {
			t.Fatal(err)
		}
		modes := rt.RegionModes()
		if len(modes) == 0 || !modes[0].Batched {
			t.Fatalf("batched engine not active: %+v", modes)
		}
	}
	if st, err := k.Run(); err != nil || st != sim.RunIdle {
		t.Fatalf("run = %v %v", st, err)
	}
	seq, err := app.OutputSequence()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; enlarge it", rec.Dropped())
	}
	var traffic strings.Builder
	for _, l := range rt.Links() {
		fmt.Fprintf(&traffic, "%s pushes=%d pops=%d occ=%d\n",
			l.String(), l.Pushes(), l.Pops(), l.Occupancy())
	}
	return fmt.Sprintf("%v", seq), traffic.String(), rec.Snapshot(), k.Now()
}

// TestBatchDifferentialDecode is the differential gate for the batched
// execution engine (DESIGN §12): a full multi-frame decode must produce
// a byte-identical output sequence, byte-identical token traffic, AND a
// byte-identical observation trace (full payloads, default mask) whether
// the proven-SDF region runs batched or per-token. Lazy compute
// accumulation is only legal because every timestamp another process
// can observe is settled before it is taken — this test is the
// empirical check of that invariant over the whole case study.
func TestBatchDifferentialDecode(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7, Frames: 4}
	bits, err := h264.EncodeSequence(h264.GenerateSequence(p), p)
	if err != nil {
		t.Fatal(err)
	}
	plans := batchPlansFor(t, p, bits)

	refSeq, refTraffic, refEvs, refT := batchDecode(t, p, bits, nil)
	batSeq, batTraffic, batEvs, batT := batchDecode(t, p, bits, plans)

	if refT != batT {
		t.Errorf("final simulated time differs: per-token %v, batched %v", refT, batT)
	}
	if refSeq != batSeq {
		t.Error("decoded sequences differ between per-token and batched runs")
	}
	if refTraffic != batTraffic {
		t.Errorf("token traffic differs:\n--- per-token ---\n%s--- batched ---\n%s",
			refTraffic, batTraffic)
	}
	if len(refEvs) != len(batEvs) {
		t.Fatalf("event counts differ: per-token %d, batched %d", len(refEvs), len(batEvs))
	}
	for i := range refEvs {
		if refEvs[i] != batEvs[i] {
			t.Fatalf("event %d differs:\n  per-token %+v\n  batched   %+v",
				i, refEvs[i], batEvs[i])
		}
	}
	if len(refEvs) == 0 || !strings.Contains(refTraffic, "pushes=") {
		t.Fatal("empty trace or traffic: test observed nothing")
	}
}

// TestBatchMidRunDemotion drives the batch/demote state machine through
// a live debug session: arming a breakpoint anywhere demotes the region,
// also mid-run, deleting it promotes the region back, and the decode
// still completes with per-token-identical output.
func TestBatchMidRunDemotion(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7, Frames: 2}
	bits, err := h264.EncodeSequence(h264.GenerateSequence(p), p)
	if err != nil {
		t.Fatal(err)
	}
	plans := batchPlansFor(t, p, bits)
	refSeq, _, _, refT := batchDecode(t, p, bits, nil)

	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	m := mach.New(k, mach.Config{})
	rt := pedf.NewRuntime(k, m, low)
	app, err := h264.Build(rt, p, bits, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rt.EnableBatch(plans); err != nil {
		t.Fatal(err)
	}
	region := func() pedf.RegionMode { return rt.RegionModes()[0] }
	if !region().Batched {
		t.Fatalf("region not batched after EnableBatch: %+v", region())
	}

	// A breakpoint on an actor OUTSIDE the region (bh is dynamic, so the
	// analyzer keeps it off the plan) demotes the region too: it can stop
	// the world while a lazy region actor runs ahead of the clock
	// (TestBatchStopStateMatchesPerToken).
	outside, err := low.BreakFunc(dbginfo.MangleFilterWork("bh"))
	if err != nil {
		t.Fatal(err)
	}
	if mode := region(); mode.Batched || mode.Reason != "breakpoint on "+outside.Sym {
		t.Fatalf("breakpoint outside the region did not demote it: %+v", mode)
	}
	low.SetBreakEnabled(outside, false)
	if !region().Batched {
		t.Fatalf("disabled breakpoint kept the region demoted: %+v", region())
	}
	if err := low.DeleteBp(outside.ID); err != nil {
		t.Fatal(err)
	}

	// Arm a breakpoint on a region actor: demote, and hit it mid-run.
	bp, err := low.BreakFunc(dbginfo.MangleFilterWork("ipf"))
	if err != nil {
		t.Fatal(err)
	}
	if mode := region(); mode.Batched || !strings.Contains(mode.Reason, "breakpoint") {
		t.Fatalf("armed region breakpoint did not demote: %+v", mode)
	}
	ev := low.Continue()
	if ev.Kind != lowdbg.StopBreakpoint {
		t.Fatalf("expected breakpoint stop, got %+v", ev)
	}

	// Delete the breakpoint while stopped mid-run: the region promotes
	// back to batched and the rest of the decode runs lazily.
	if err := low.DeleteBp(bp.ID); err != nil {
		t.Fatal(err)
	}
	if !region().Batched {
		t.Fatalf("region did not promote after breakpoint removal: %+v", region())
	}

	// An armed fault plan demotes every region (trigger indices count
	// per-token actions), and clearing it promotes again.
	k.SetFaults(fault.NewInjector(fault.Plan{}))
	if mode := region(); mode.Batched || mode.Reason != "fault plan armed" {
		t.Fatalf("armed fault plan did not demote: %+v", mode)
	}
	k.SetFaults(nil)
	if !region().Batched {
		t.Fatalf("region did not promote after faults cleared: %+v", region())
	}

	// A hold demotes too.
	rt.SetBatchHold("held")
	if mode := region(); mode.Batched || mode.Reason != "held" {
		t.Fatalf("hold did not demote: %+v", mode)
	}
	rt.SetBatchHold("")
	if !region().Batched {
		t.Fatalf("region did not promote after hold cleared: %+v", region())
	}

	if ev := low.Continue(); ev.Kind != lowdbg.StopDone || ev.Deadlock != nil {
		t.Fatalf("run ended with %+v", ev)
	}
	seq, err := app.OutputSequence()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", seq) != refSeq {
		t.Error("decoded sequence differs after mid-run demotion/promotion")
	}
	if refT == 0 {
		t.Fatal("reference run observed nothing")
	}
}

// TestBatchStopStateMatchesPerToken stops a batched world at the 1st,
// 3rd and 6th hit of a breakpoint on bh's WORK, an actor outside every
// region, and compares the runtime's encoded state with a per-token
// world's at the same hits. A lazy actor runs statements ahead of the
// clock between flush points, so had the region stayed batched, its
// private data would be ahead of the per-token world at these stops.
func TestBatchStopStateMatchesPerToken(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7, Frames: 2}
	bits, err := h264.EncodeSequence(h264.GenerateSequence(p), p)
	if err != nil {
		t.Fatal(err)
	}
	plans := batchPlansFor(t, p, bits)
	stops := func(plans []pedf.BatchPlan) []string {
		k := sim.NewKernel()
		defer k.Shutdown()
		low := lowdbg.New(k, dbginfo.NewTable())
		rt := pedf.NewRuntime(k, mach.New(k, mach.Config{}), low)
		if _, err := h264.Build(rt, p, bits, false); err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		if plans != nil {
			if err := rt.EnableBatch(plans); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := low.BreakFunc(dbginfo.MangleFilterWork("bh")); err != nil {
			t.Fatal(err)
		}
		var out []string
		for hit := 1; hit <= 6; hit++ {
			if ev := low.Continue(); ev.Kind != lowdbg.StopBreakpoint {
				t.Fatalf("hit %d: expected a breakpoint stop, got %+v", hit, ev)
			}
			if hit == 1 || hit == 3 || hit == 6 {
				w := wire.NewWriter()
				if err := rt.EncodeState(w); err != nil {
					t.Fatal(err)
				}
				out = append(out, fmt.Sprintf("t=%d state=%x", k.Now(), sha256.Sum256(w.Data())))
			}
		}
		return out
	}
	ref, bat := stops(nil), stops(plans)
	for i, hit := range []int{1, 3, 6} {
		if ref[i] != bat[i] {
			t.Errorf("hit %d: batched world differs from per-token\n  per-token %s\n  batched   %s",
				hit, ref[i], bat[i])
		}
	}
}
