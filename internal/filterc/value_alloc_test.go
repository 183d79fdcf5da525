package filterc

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Scalar Clone must be a plain struct copy: the batched token path
// budgets 0 allocs/op for scalar transfers (ISSUE 8), and every push on
// a pedf link clones the pushed value.
func TestScalarCloneDoesNotAllocate(t *testing.T) {
	v := Value{Type: Scalar(I32), I: 42}
	var sink Value
	allocs := mallocs(1000, func() {
		sink = v.Clone()
	})
	if allocs != 0 {
		t.Fatalf("1000 scalar Clones allocated %d objects, want 0", allocs)
	}
	if sink.I != 42 {
		t.Fatalf("clone lost value: %v", sink)
	}
}

// CloneInto on a reused destination slot must reach an allocation-free
// steady state even for aggregates: the first clone sizes the element
// storage, subsequent clones reuse it.
func TestCloneIntoSteadyStateDoesNotAllocate(t *testing.T) {
	at := ArrayOf(Scalar(I32), 16)
	src := Value{Type: at, Elems: make([]Value, 16)}
	for i := range src.Elems {
		src.Elems[i] = Value{Type: Scalar(I32), I: int64(i * 3)}
	}
	var slot Value
	src.CloneInto(&slot) // warm the slot's backing storage
	allocs := mallocs(1000, func() {
		src.CloneInto(&slot)
	})
	if allocs != 0 {
		t.Fatalf("1000 steady-state CloneIntos allocated %d objects, want 0", allocs)
	}
	for i := range src.Elems {
		if slot.Elems[i].I != int64(i*3) {
			t.Fatalf("elem %d: got %d, want %d", i, slot.Elems[i].I, i*3)
		}
	}
	// Value semantics: mutating the clone must not touch the source.
	slot.Elems[0].I = -1
	if src.Elems[0].I != 0 {
		t.Fatalf("CloneInto aliased source storage")
	}
}

// mallocs runs fn once to warm up, then n times, and returns the heap
// objects allocated over the n runs. A zero pin needs the total:
// testing.AllocsPerRun returns the integer mean, which reads 0 for up
// to n-1 allocations in n runs. The malloc counter is process-wide, so
// with the collector paused it is read over three loops and the least
// is kept: another goroutine's allocation can only add to a loop, and
// fn's own show in every one.
func mallocs(n int, fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// Mallocs is mallocs for the external test package.
var Mallocs = mallocs
