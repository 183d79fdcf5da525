// Fault-layer benchmarks and guarantees: the dffault design promises
// near-zero cost when no injector is installed (every injection point is
// one nil check) and strict passivity when armed faults never match —
// an injector must not perturb the schedule it is waiting to disturb.
package dfdbg

import (
	"testing"

	"dfdbg/internal/fault"
	"dfdbg/internal/h264"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// faultDecode runs one bare decode (no debugger attached) with the given
// injector installed (nil = fault layer disabled) and returns the final
// simulated time and total link pushes.
func faultDecode(tb testing.TB, p h264.Params, in *fault.Injector) (sim.Time, uint64) {
	tb.Helper()
	k := sim.NewKernel()
	if in != nil {
		k.SetFaults(in)
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

// idleInjector returns an armed injector none of whose faults can ever
// match the decoder's targets: the worst case for the enabled-but-idle
// path, where every injection point performs its lookup and misses.
func idleInjector() *fault.Injector {
	return fault.NewInjector(fault.Plan{Faults: []fault.Fault{
		{Kind: fault.KCorrupt, Target: "no_such::link", N: 0, Arg: 1},
		{Kind: fault.KDrop, Target: "no_such::link", N: 0},
		{Kind: fault.KStall, Target: "no_such_filter", N: 0, Arg: 1},
		{Kind: fault.KFreeze, Target: "no.such.proc", N: 0},
		{Kind: fault.KSlowPE, PE: 9999, Arg: 2},
	}})
}

// BenchmarkFaultOverhead compares decoder wall-clock cost across the
// fault-layer configurations: disabled (no injector — the default
// everywhere) and armed with a plan that never fires.
func BenchmarkFaultOverhead(b *testing.B) {
	cases := []struct {
		name string
		in   func() *fault.Injector
	}{
		{"disabled", func() *fault.Injector { return nil }},
		{"armed_idle", func() *fault.Injector { return idleInjector() }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				faultDecode(b, benchParams, c.in())
			}
		})
	}
}

// TestFaultDisabledWithinNoise gates the idle injector's cost as a
// ratio of two decodes measured alternately on the same host
// (overheadRatio): an armed-idle decode must cost at most 2x a bare
// one, which catches idle injection points grown 2x costlier. A bare
// decode must cost at most 2x an armed one, which catches a
// no-injector path that stopped being one nil check.
func TestFaultDisabledWithinNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	r := overheadRatio(
		func() { faultDecode(t, p, nil) },
		func() { faultDecode(t, p, idleInjector()) })
	t.Logf("armed-idle / bare decode = %.2f (median of 11 pairs)", r)
	if r > 2 {
		t.Errorf("an armed-idle decode costs %.2fx a bare one (bound 2): idle injection has regressed", r)
	}
	if r < 0.5 {
		t.Errorf("a bare decode costs %.2fx an armed-idle one (bound 2): the no-injector fast path has regressed", 1/r)
	}
}

// TestFaultArmedIdleIsPassive is the P2-style determinism check for the
// fault layer: an injector whose faults never match must be invisible —
// identical final time and token traffic to the disarmed run, zero
// injections and an empty trace.
func TestFaultArmedIdleIsPassive(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	nativeT, nativePushes := faultDecode(t, p, nil)

	in := idleInjector()
	armedT, armedPushes := faultDecode(t, p, in)
	if armedT != nativeT {
		t.Errorf("armed-idle run ended at %v, native at %v", armedT, nativeT)
	}
	if armedPushes != nativePushes {
		t.Errorf("armed-idle run pushed %d tokens, native %d", armedPushes, nativePushes)
	}
	if in.InjectedTotal() != 0 {
		t.Errorf("idle injector fired %d times", in.InjectedTotal())
	}
	if tr := in.TraceStrings(); len(tr) != 0 {
		t.Errorf("idle injector trace not empty: %v", tr)
	}
}

// TestFaultTraceDeterministic asserts the per-seed reproducibility
// criterion at the top of the stack: the same generated plan, run twice
// over the same decode, fires the identical fault trace.
func TestFaultTraceDeterministic(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	trace := func() []string {
		k := sim.NewKernel()
		m := mach.New(k, mach.Config{})
		rt := pedf.NewRuntime(k, m, nil)
		bits, err := h264.Encode(h264.GenerateFrame(p), p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h264.Build(rt, p, bits, false); err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		// A corrupt+delay plan: fires but cannot deadlock the decode.
		in := fault.NewInjector(fault.Plan{Faults: []fault.Fault{
			{Kind: fault.KCorrupt, Target: rt.FaultTargets().Links[0], N: 3, Arg: 0xff},
			{Kind: fault.KDMADelay, N: 2, Arg: 500},
		}})
		k.SetFaults(in)
		if st, err := k.Run(); err != nil || st != sim.RunIdle {
			t.Fatalf("run = %v %v", st, err)
		}
		return in.TraceStrings()
	}
	a, b := trace(), trace()
	if len(a) == 0 {
		t.Fatal("plan never fired; pick a hotter target")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("trace line %d differs:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}
