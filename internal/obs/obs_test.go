package obs

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
)

func TestRingBasics(t *testing.T) {
	r := NewRecorder(4)
	if r.Cap() != 4 || r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatalf("fresh ring: cap=%d len=%d total=%d dropped=%d",
			r.Cap(), r.Len(), r.Total(), r.Dropped())
	}
	for i := 0; i < 3; i++ {
		r.Record(Event{At: uint64(i), Kind: KPush, Arg: int64(i)})
	}
	if r.Len() != 3 || r.Dropped() != 0 {
		t.Errorf("len=%d dropped=%d, want 3/0", r.Len(), r.Dropped())
	}
	s := r.Snapshot()
	if len(s) != 3 || s[0].Arg != 0 || s[2].Arg != 2 {
		t.Errorf("snapshot = %v", s)
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 {
		t.Errorf("after reset: len=%d total=%d", r.Len(), r.Total())
	}
}

func TestRingDefaultCap(t *testing.T) {
	if got := NewRecorder(0).Cap(); got != DefaultCap {
		t.Errorf("cap = %d, want %d", got, DefaultCap)
	}
	if got := NewRecorder(-5).Cap(); got != DefaultCap {
		t.Errorf("cap = %d, want %d", got, DefaultCap)
	}
}

// TestRingWraparoundProperty checks the drop-oldest contract for
// arbitrary (capacity, record count) pairs: the ring keeps exactly the
// newest min(n, cap) events in order, and Dropped+Len == Total.
func TestRingWraparoundProperty(t *testing.T) {
	prop := func(capRaw uint8, nRaw uint16) bool {
		capacity := int(capRaw)%64 + 1
		n := int(nRaw) % 500
		r := NewRecorder(capacity)
		for i := 0; i < n; i++ {
			r.Record(Event{Arg: int64(i), Kind: KPush})
		}
		keep := n
		if keep > capacity {
			keep = capacity
		}
		s := r.Snapshot()
		if len(s) != keep {
			return false
		}
		for i, ev := range s {
			if ev.Arg != int64(n-keep+i) {
				return false
			}
		}
		return r.Total() == uint64(n) &&
			r.Dropped()+uint64(r.Len()) == r.Total()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Wants(KPush) || r.Payloads() {
		t.Error("nil recorder wants events")
	}
	r.Record(Event{Kind: KPush}) // must not panic
	if r.Snapshot() != nil {
		t.Error("nil snapshot not nil")
	}
}

func TestMaskGating(t *testing.T) {
	r := NewRecorder(8)
	if r.Wants(KDispatch) {
		t.Error("default mask includes kernel events")
	}
	if !r.Wants(KPush) || !r.Wants(KTransfer) || !r.Wants(KBpHit) {
		t.Error("default mask missing dataflow/mach/debug kinds")
	}
	r.SetMask(0)
	if r.Wants(KPush) {
		t.Error("zero mask still wants KPush")
	}
	r.EnableKinds(MaskSim)
	if !r.Wants(KDispatch) || r.Wants(KPush) {
		t.Errorf("mask after EnableKinds(MaskSim) = %b", r.Mask())
	}
}

func TestKindStrings(t *testing.T) {
	for k := KNone; k < numKinds; k++ {
		if s := k.String(); s == "" || strings.Contains(s, "?") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "Kind(?)" {
		t.Error("out-of-range kind string")
	}
}

// BenchmarkDisabledHook measures the hook-site cost with no recorder
// installed — the "off by default" price every dispatch pays.
func BenchmarkDisabledHook(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.Wants(KPush) {
			r.Record(Event{Kind: KPush})
		}
	}
}

// BenchmarkRecord measures one enabled ring store.
func BenchmarkRecord(b *testing.B) {
	r := NewRecorder(1 << 14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.Wants(KPush) {
			r.Record(Event{At: uint64(i), Kind: KPush, Link: 1, Arg: 3, Actor: "a", Other: "b", Port: "o"})
		}
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	r := NewRecorder(64)
	ev := Event{At: 1, Kind: KPush, Actor: "a", Other: "b", Port: "o"}
	allocs := mallocs(1000, func() {
		if r.Wants(KPush) {
			r.Record(ev)
		}
	})
	if allocs != 0 {
		t.Errorf("1000 Records allocate %d objects, want 0", allocs)
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
