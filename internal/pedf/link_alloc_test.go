package pedf

import (
	"runtime"
	"runtime/debug"
	"testing"

	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/sim"
)

// newBareLink builds a scalar link "a::o -> b::i" with the given
// capacity outside any application graph.
func newBareLink(k *sim.Kernel, rt *Runtime, capacity int) *Link {
	return &Link{
		ID:  1,
		Src: &Port{ActorName: "a", Name: "o", Dir: Out, Type: u32},
		Dst: &Port{ActorName: "b", Name: "i", Dir: In, Type: u32},
		Cap: capacity, rt: rt,
		notEmpty: k.NewEvent("ne"),
		notFull:  k.NewEvent("nf"),
	}
}

// announceBind reports l to the attached debugger the way the
// initialization phase does, so the dataflow layer models the link.
func announceBind(p *sim.Proc, rt *Runtime, l *Link) {
	if exit := rt.hook(p, SymBind, appendBindArgs(nil, l)); exit != nil {
		exit(lowdbg.Datum{})
	}
}

// TestLinkSteadyStateAllocs pins the ring-buffer link's core guarantee:
// once the ring has reached its working size, a scalar push/pop cycle on
// the undebugged hot path performs zero heap allocations — index
// arithmetic and in-place clones only, no append-and-Clone per token.
func TestLinkSteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel()
	m := mach.New(k, mach.Config{})
	rt := NewRuntime(k, m, nil)
	l := newBareLink(k, rt, 8)
	var perToken float64
	k.Spawn("bench", func(p *sim.Proc) {
		var dst filterc.Value
		push := func(i int) {
			if err := l.push(p, nil, m.Host, filterc.Int(filterc.U32, int64(i))); err != nil {
				t.Error(err)
			}
		}
		pop := func() {
			if _, err := l.pop(p, nil, &dst); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 64; i++ { // warm the ring and the pop destination
			push(i)
			pop()
		}
		// The simulation is single-threaded here (the kernel goroutine is
		// parked on the baton) and the GC is paused, so the global malloc
		// counter delta is exactly this loop's allocations. One P keeps
		// the baton hand-offs on one P's cache of channel wait records;
		// with several Ps the runtime can allocate fresh ones, which is
		// its cost, not the link's.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const n = 1024
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			push(i)
			pop()
		}
		runtime.ReadMemStats(&after)
		perToken = float64(after.Mallocs-before.Mallocs) / n
	})
	if st, err := k.Run(); err != nil || st != sim.RunIdle {
		t.Fatalf("run = %v %v", st, err)
	}
	if perToken != 0 {
		t.Errorf("steady-state push/pop allocates %.3f objects per token, want 0", perToken)
	}
}

// TestLinkAttachedAllocs pins the allocation budget of the always-armed
// interception path (DESIGN §12): with lowdbg and the dataflow layer
// attached and nothing armed by a user, a push/pop cycle allocates
// nothing. The dataflow layer's internal push and pop breakpoints run
// in recycled call frames over the link's recycled argument lists,
// whose typed payloads (index, value) and the typed pop return are
// written in place, never boxed, and the token a push records is a
// record in the dataflow layer's token store, whose buffers stop
// growing once they fit the working set.
func TestLinkAttachedAllocs(t *testing.T) {
	if got := attachedCycleAllocs(t, nil); got != 0 {
		t.Errorf("attached push/pop cycle allocates %.0f objects, want 0", got)
	}
}

// TestLinkAttachedCatchAllocs extends the budget to armed catchpoints
// that never hit: evaluating them on every send and receive walks the
// live catchpoint list, so the cycle allocates exactly what it does
// with none armed.
func TestLinkAttachedCatchAllocs(t *testing.T) {
	arm := func(d *core.Debugger) {
		d.CatchWhen("never", func(*core.Debugger) bool { return false })
		if _, err := d.CatchContentOf("b::i", "== -1", func(v filterc.Value) bool { return v.I == -1 }); err != nil {
			t.Fatal(err)
		}
	}
	if got := attachedCycleAllocs(t, arm); got != 0 {
		t.Errorf("attached push/pop cycle with catchpoints armed allocates %.0f objects, want 0", got)
	}
}

// TestLinkAttachedRecordAllocs extends the budget to an interface
// recording its history (`iface b::i record`): the history reuses its
// buffer, and the token store keeps the recorded tokens as records.
func TestLinkAttachedRecordAllocs(t *testing.T) {
	arm := func(d *core.Debugger) {
		if err := d.SetRecording("b::i", true); err != nil {
			t.Fatal(err)
		}
	}
	if got := attachedCycleAllocs(t, arm); got != 0 {
		t.Errorf("attached push/pop cycle with recording on allocates %.0f objects, want 0", got)
	}
}

// BenchmarkLinkAttachedCycle reports the time and allocations of one
// push/pop cycle on the attached interception path measured above.
func BenchmarkLinkAttachedCycle(b *testing.B) {
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	core.Attach(low)
	m := mach.New(k, mach.Config{})
	rt := NewRuntime(k, m, low)
	l := newBareLink(k, rt, 8)
	k.Spawn("bench", func(p *sim.Proc) {
		announceBind(p, rt, l)
		var dst filterc.Value
		cycle := func(i int) {
			if err := l.push(p, nil, m.Host, filterc.Int(filterc.U32, int64(i))); err != nil {
				b.Error(err)
			}
			if _, err := l.pop(p, nil, &dst); err != nil {
				b.Error(err)
			}
		}
		for i := 0; i < 300; i++ { // warm the ring, the frames and the model
			cycle(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(i)
		}
		b.StopTimer()
	})
	if st, err := k.Run(); err != nil || st != sim.RunIdle {
		b.Fatalf("run = %v %v", st, err)
	}
}

// attachedCycleAllocs measures the objects one push/pop cycle allocates
// on a bare link with lowdbg and the dataflow layer attached, after arm
// (if set) armed the dataflow layer.
func attachedCycleAllocs(t *testing.T, arm func(*core.Debugger)) float64 {
	t.Helper()
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	d := core.Attach(low)
	m := mach.New(k, mach.Config{})
	rt := NewRuntime(k, m, low)
	l := newBareLink(k, rt, 8)
	var perCycle float64
	cycles := 0
	k.Spawn("bench", func(p *sim.Proc) {
		announceBind(p, rt, l)
		if arm != nil {
			arm(d)
		}
		var dst filterc.Value
		cycle := func() {
			if err := l.push(p, nil, m.Host, filterc.Int(filterc.U32, int64(cycles))); err != nil {
				t.Error(err)
			}
			if _, err := l.pop(p, nil, &dst); err != nil {
				t.Error(err)
			}
			cycles++
		}
		// Warm the ring, the frames and the model. The model's token
		// store reaches its working size after its first compactions,
		// a thousand-odd scalar tokens apart.
		for cycles < 5000 {
			cycle()
		}
		// The kernel goroutine is parked on the baton, so the global
		// malloc count AllocsPerRun reads is this loop's alone.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		perCycle = testing.AllocsPerRun(1000, cycle)
	})
	if st, err := k.Run(); err != nil || st != sim.RunIdle {
		t.Fatalf("run = %v %v", st, err)
	}
	links := d.Links()
	if len(links) != 1 || links[0].TotalPushed != uint64(cycles) || links[0].TotalPopped != uint64(cycles) {
		t.Fatalf("dataflow layer did not model the cycles: %v", links)
	}
	return perCycle
}
