package obs

import (
	"testing"
	"testing/quick"
)

func TestWindowBasics(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 3; i++ {
		r.Record(Event{Arg: int64(i), Kind: KPush})
	}
	evs, first := r.Window(0, 0)
	if first != 0 || len(evs) != 3 || evs[0].Arg != 0 || evs[2].Arg != 2 {
		t.Fatalf("Window(0,0) = %d events from %d", len(evs), first)
	}
	evs, first = r.Window(1, 0)
	if first != 1 || len(evs) != 2 || evs[0].Arg != 1 {
		t.Fatalf("Window(1,0) = %d events from %d", len(evs), first)
	}
	evs, first = r.Window(0, 2)
	if first != 0 || len(evs) != 2 || evs[1].Arg != 1 {
		t.Fatalf("Window(0,2) = %d events from %d", len(evs), first)
	}
	if evs, first = r.Window(3, 0); len(evs) != 0 || first != 3 {
		t.Fatalf("past-the-end window = %d events from %d", len(evs), first)
	}
	if evs, first = r.Window(99, 0); len(evs) != 0 || first != 3 {
		t.Fatalf("far-future window = %d events from %d", len(evs), first)
	}
}

func TestWindowAfterWraparound(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ { // seqs 0..9; ring retains 6..9
		r.Record(Event{Arg: int64(i), Kind: KPush})
	}
	evs, first := r.Window(0, 0)
	if first != 6 || len(evs) != 4 || evs[0].Arg != 6 || evs[3].Arg != 9 {
		t.Fatalf("wrapped Window(0,0) = %d events from %d: %v", len(evs), first, evs)
	}
	evs, first = r.Window(8, 0)
	if first != 8 || len(evs) != 2 || evs[0].Arg != 8 {
		t.Fatalf("Window(8,0) = %d events from %d", len(evs), first)
	}
}

func TestNilWindow(t *testing.T) {
	var r *Recorder
	if evs, first := r.Window(0, 10); evs != nil || first != 0 {
		t.Fatal("nil recorder window not empty")
	}
}

// TestWindowPollerProperty drives a poller loop (from = first + len)
// over arbitrary record bursts and checks it sees every retained event
// exactly once, in order, with gaps only at the drop-oldest horizon.
func TestWindowPollerProperty(t *testing.T) {
	prop := func(capRaw uint8, bursts []uint8) bool {
		capacity := int(capRaw)%32 + 1
		r := NewRecorder(capacity)
		var from uint64
		next := int64(0) // next Arg the poller must observe, -1 on gap
		total := 0
		for _, b := range bursts {
			for i := 0; i < int(b)%40; i++ {
				r.Record(Event{Arg: int64(total), Kind: KPush})
				total++
			}
			for {
				evs, first := r.Window(from, 7)
				if first > from { // dropped a span; resync
					next = int64(first)
				}
				if len(evs) == 0 {
					break
				}
				for _, ev := range evs {
					if ev.Arg != next {
						return false
					}
					next++
				}
				from = first + uint64(len(evs))
			}
		}
		return int(next) == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTap(t *testing.T) {
	r := NewRecorder(4)
	var got []uint64
	r.Record(Event{Kind: KPush}) // before install: not seen
	r.SetTap(func(ev Event, seq uint64) {
		if ev.Kind != KPop {
			t.Errorf("tap saw kind %v", ev.Kind)
		}
		got = append(got, seq)
	})
	r.Record(Event{Kind: KPop})
	r.Record(Event{Kind: KPop})
	r.SetTap(nil)
	r.Record(Event{Kind: KPush}) // after removal: not seen
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("tap sequences = %v, want [1 2]", got)
	}
}

func TestTapDoesNotAllocate(t *testing.T) {
	r := NewRecorder(64)
	var n uint64
	r.SetTap(func(ev Event, seq uint64) { n = seq })
	ev := Event{At: 1, Kind: KPush, Actor: "a"}
	if allocs := mallocs(1000, func() { r.Record(ev) }); allocs != 0 {
		t.Errorf("1000 Records with a tap allocate %d objects, want 0", allocs)
	}
	_ = n
}
