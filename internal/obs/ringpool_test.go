package obs

import "testing"

// A released ring goes to the next recorder of the same capacity, and
// that recorder sees an empty, zeroed ring whether it reuses one or not.
func TestReleasedRingIsReusedZeroed(t *testing.T) {
	const capacity = 37 // a capacity no other test uses
	reused := 0
	for i := 0; i < 20; i++ {
		r := NewRecorder(capacity)
		for j := 0; j < capacity+i; j++ { // wrap the ring on every round but the first
			r.Record(Event{At: uint64(j), Kind: KPush, Actor: "a", Val: "payload"})
		}
		first := &r.ring[0]
		r.Release()
		r.Release() // idempotent
		if r.Cap() != 0 || r.Len() != 0 || r.Total() != 0 || len(r.Snapshot()) != 0 {
			t.Fatalf("released recorder: cap=%d len=%d total=%d", r.Cap(), r.Len(), r.Total())
		}
		next := NewRecorder(capacity)
		if &next.ring[0] == first {
			reused++
		}
		if next.Cap() != capacity || next.Len() != 0 || next.Total() != 0 {
			t.Fatalf("next recorder: cap=%d len=%d total=%d", next.Cap(), next.Len(), next.Total())
		}
		for k, ev := range next.ring {
			if ev != (Event{}) {
				t.Fatalf("round %d: slot %d of the next ring holds %+v", i, k, ev)
			}
		}
		next.Release()
	}
	// sync.Pool may drop items (the race detector drops a share on
	// purpose, and a GC can empty it), but not on every round.
	if reused == 0 {
		t.Errorf("no released ring was reused in 20 rounds")
	}
	other := NewRecorder(capacity + 1)
	if other.Cap() != capacity+1 {
		t.Errorf("a recorder of another capacity got cap %d", other.Cap())
	}
	var nilRec *Recorder
	nilRec.Release()
}
