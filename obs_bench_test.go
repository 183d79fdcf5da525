// Observability-layer benchmarks and guarantees: the dfobs design
// promises near-zero cost when no recorder is installed (every hook
// point is one nil/mask check) and bounded, passive cost when enabled
// (one ring-slot store per event, no allocation, no notifications).
package dfdbg

import (
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"dfdbg/internal/h264"
	"dfdbg/internal/mach"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// obsDecode runs one bare decode (no debugger attached) with the given
// recorder installed (nil = observability disabled) and returns the
// final simulated time and total link pushes.
func obsDecode(tb testing.TB, p h264.Params, rec *obs.Recorder) (sim.Time, uint64) {
	tb.Helper()
	k := sim.NewKernel()
	if rec != nil {
		k.SetObserver(rec)
	}
	m := mach.New(k, mach.Config{})
	rt := pedf.NewRuntime(k, m, nil)
	bits, err := h264.Encode(h264.GenerateFrame(p), p)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := h264.Build(rt, p, bits, false); err != nil {
		tb.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		tb.Fatal(err)
	}
	if st, err := k.Run(); err != nil || st != sim.RunIdle {
		tb.Fatalf("run = %v %v", st, err)
	}
	var pushes uint64
	for _, l := range rt.Links() {
		pushes += l.Pushes()
	}
	return k.Now(), pushes
}

// BenchmarkObsOverhead compares decoder wall-clock cost across the
// observability configurations: disabled (no recorder — the default
// everywhere), events only, and events plus payload rendering.
func BenchmarkObsOverhead(b *testing.B) {
	cases := []struct {
		name string
		rec  func() *obs.Recorder
	}{
		{"disabled", func() *obs.Recorder { return nil }},
		{"events", func() *obs.Recorder { return obs.NewRecorder(1 << 16) }},
		{"events_payloads", func() *obs.Recorder {
			r := obs.NewRecorder(1 << 16)
			r.SetPayloads(true)
			return r
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				obsDecode(b, benchParams, c.rec())
			}
		})
	}
}

// TestObsDisabledWithinNoise gates the recorder's cost as a ratio of
// two decodes measured alternately on the same host: a recorded decode
// must cost at most 1.5x a bare one, which catches a record path grown
// 2x costlier. A bare decode must cost at most 2x a recorded one, which
// catches a no-recorder path that stopped being one nil check. A
// regression in the shared hook path slows both runs alike; that is
// perfbench's frames_per_s to catch, not this ratio.
func TestObsDisabledWithinNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	r := overheadRatio(
		func() { obsDecode(t, p, nil) },
		func() { obsDecode(t, p, obs.NewRecorder(1<<16)) })
	t.Logf("recorded / bare decode = %.2f (median of 11 pairs)", r)
	if r > 1.5 {
		t.Errorf("a recorded decode costs %.2fx a bare one (bound 1.5): the record path has regressed", r)
	}
	if r < 0.5 {
		t.Errorf("a bare decode costs %.2fx a recorded one (bound 2): the no-recorder fast path has regressed", 1/r)
	}
}

// overheadRatio times base and variant alternately, 11 times after one
// warm-up run of each, with the collector paused inside every timed
// run, and returns the median of the per-pair ratios variant/base.
// Alternating cancels drift in the host's speed; the median drops the
// pairs a neighbour's burst landed in.
func overheadRatio(base, variant func()) float64 {
	base()
	variant()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ratios := make([]float64, 11)
	for i := range ratios {
		runtime.GC()
		t0 := time.Now()
		base()
		d := time.Since(t0)
		runtime.GC()
		t0 = time.Now()
		variant()
		ratios[i] = float64(time.Since(t0)) / float64(d)
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2]
}

// TestObsDoesNotChangeExecution is the P2-style determinism check for
// the observability layer: recording must be passive, so enabling it
// cannot change the simulated schedule, the token traffic, or the event
// sequence itself.
func TestObsDoesNotChangeExecution(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	nativeT, nativePushes := obsDecode(t, p, nil)

	rec1 := obs.NewRecorder(1 << 20)
	rec1.SetPayloads(true)
	obsT, obsPushes := obsDecode(t, p, rec1)
	if obsT != nativeT {
		t.Errorf("observed run ended at %v, native at %v", obsT, nativeT)
	}
	if obsPushes != nativePushes {
		t.Errorf("observed run pushed %d tokens, native %d", obsPushes, nativePushes)
	}
	if rec1.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; enlarge it", rec1.Dropped())
	}

	// A second observed run must produce the identical event sequence
	// (ring capacity differs to vary the memory layout, not the tail).
	rec2 := obs.NewRecorder(1 << 21)
	rec2.SetPayloads(true)
	obsDecode(t, p, rec2)
	evs1, evs2 := rec1.Snapshot(), rec2.Snapshot()
	if len(evs1) != len(evs2) {
		t.Fatalf("event counts differ: %d vs %d", len(evs1), len(evs2))
	}
	for i := range evs1 {
		if evs1[i] != evs2[i] {
			t.Fatalf("event %d differs:\n  %+v\n  %+v", i, evs1[i], evs2[i])
		}
	}
}
