package obs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestRecordPayloadDoesNotAllocate pins the ring's recording path: once a
// recorder knows an event's names, Record (payload included, ring
// wrapped) and RecordPayload are free of per-event heap traffic.
func TestRecordPayloadDoesNotAllocate(t *testing.T) {
	r := NewRecorder(16)
	actor := "filter." + strings.Repeat("x", 3) // a name built at run time
	ev := Event{At: 1, Kind: KPush, PE: 2, Link: 3, Actor: actor, Other: "ctl", Port: "o", Val: "[1, 2, 3]"}
	payload := []byte("{re = 4, im = -1}")
	for i := 0; i < 40; i++ { // learn the names, wrap the ring, size the arena
		r.Record(ev)
		r.RecordPayload(ev, payload)
	}
	if allocs := mallocs(1000, func() { r.Record(ev) }); allocs != 0 {
		t.Errorf("1000 Records allocate %d objects, want 0", allocs)
	}
	if allocs := mallocs(1000, func() { r.RecordPayload(ev, payload) }); allocs != 0 {
		t.Errorf("1000 RecordPayloads allocate %d objects, want 0", allocs)
	}
	last := r.Snapshot()[r.Len()-1]
	if want := (Event{At: 1, Kind: KPush, PE: 2, Link: 3, Actor: actor, Other: "ctl", Port: "o", Val: string(payload)}); last != want {
		t.Errorf("last event = %+v, want %+v", last, want)
	}
}

// TestRecordRoundTrip checks the compact ring against the events it was
// given: over random capacities, names (literals and strings built at
// run time, so equal names arrive at different addresses) and payloads
// (up to several arena growths and wraps), Snapshot, Range and Window
// return exactly the newest min(n, cap) events, the tap sees every event
// with its sequence number, and RecordPayload stores what Record does.
func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := []string{"", "a", "filter.mb", "ctl", "pop:i", "push:o"}
	name := func() string {
		if rng.Intn(4) == 0 {
			return fmt.Sprintf("n%d", rng.Intn(20))
		}
		return pool[rng.Intn(len(pool))]
	}
	for round := 0; round < 200; round++ {
		capacity := 1 + rng.Intn(64)
		n := rng.Intn(300)
		r := NewRecorder(capacity)
		var tapped []uint64
		r.SetTap(func(ev Event, seq uint64) { tapped = append(tapped, seq) })
		var all []Event
		for i := 0; i < n; i++ {
			ev := Event{
				At: uint64(i), Kind: Kind(1 + rng.Intn(int(numKinds)-1)), PE: int32(rng.Intn(5) - 1),
				Link: int32(rng.Intn(9)), Arg: rng.Int63(), Arg2: -rng.Int63(),
				Actor: name(), Other: name(), Port: name(),
			}
			if rng.Intn(3) > 0 {
				ev.Val = strings.Repeat(fmt.Sprint(i%10), rng.Intn(1+rng.Intn(600)))
			}
			all = append(all, ev)
			if rng.Intn(2) == 0 {
				r.RecordPayload(Event{At: ev.At, Kind: ev.Kind, PE: ev.PE, Link: ev.Link,
					Arg: ev.Arg, Arg2: ev.Arg2, Actor: ev.Actor, Other: ev.Other, Port: ev.Port,
					Val: "ignored"}, []byte(ev.Val))
			} else {
				r.Record(ev)
			}
		}
		want := all[max(n-capacity, 0):]
		check := func(what string, got []Event) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("round %d %s: %d events, want %d", round, what, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d %s: event %d = %+v, want %+v", round, what, i, got[i], want[i])
				}
			}
		}
		check("Snapshot", r.Snapshot())
		var ranged []Event
		r.Range(func(ev Event) bool { ranged = append(ranged, ev); return true })
		check("Range", ranged)
		windowed, first := r.Window(0, 0)
		if first != uint64(n-len(want)) {
			t.Fatalf("round %d: Window starts at %d, want %d", round, first, n-len(want))
		}
		check("Window", windowed)
		if from, limit := uint64(rng.Intn(n+1)), rng.Intn(8); from >= first {
			got, _ := r.Window(from, limit)
			end := min(int(from-first)+limit, len(want))
			if limit == 0 {
				end = len(want)
			}
			if len(got) != max(end-int(from-first), 0) {
				t.Fatalf("round %d: Window(%d, %d) returned %d events", round, from, limit, len(got))
			}
			for i := range got {
				if got[i] != want[int(from-first)+i] {
					t.Fatalf("round %d: Window(%d, %d) event %d differs", round, from, limit, i)
				}
			}
		}
		if len(tapped) != n || (n > 0 && tapped[n-1] != uint64(n-1)) {
			t.Fatalf("round %d: tap saw %d events, want sequences 0..%d", round, len(tapped), n-1)
		}
	}
}

// TestScratchReuse verifies the burst-composition arena: it grows to
// the largest request, is reused without reallocating, and RecordBatch
// publishes its contents in order.
func TestScratchReuse(t *testing.T) {
	r := NewRecorder(32)
	s1 := r.Scratch(4)
	if len(s1) != 4 {
		t.Fatalf("Scratch(4) len = %d", len(s1))
	}
	for i := range s1 {
		s1[i] = Event{At: uint64(i), Kind: KBatchMode, Arg: int64(i)}
	}
	r.RecordBatch(s1)
	evs := r.Snapshot()
	if len(evs) != 4 || evs[3].Arg != 3 {
		t.Fatalf("snapshot after RecordBatch = %+v", evs)
	}
	// A smaller burst must reuse the same backing array.
	s2 := r.Scratch(2)
	if &s1[0] != &s2[0] {
		t.Error("Scratch(2) did not reuse the arena backing")
	}
	allocs := mallocs(1000, func() {
		s := r.Scratch(3)
		for i := range s {
			s[i] = Event{Kind: KBatchMode}
		}
		r.RecordBatch(s)
	})
	if allocs != 0 {
		t.Errorf("1000 steady-state Scratch+RecordBatch bursts allocate %d objects, want 0", allocs)
	}
}

// TestBatchModeKindMasking pins KBatchMode's mask placement: it is a
// simulator-internal kind, excluded from the default mask, so enabling
// the batched engine cannot perturb a default-mask trace (the
// differential suite relies on this).
func TestBatchModeKindMasking(t *testing.T) {
	r := NewRecorder(8)
	if r.Wants(KBatchMode) {
		t.Error("KBatchMode is in the default mask; batched and per-token default traces would differ")
	}
	if MaskSim&(1<<KBatchMode) == 0 {
		t.Error("KBatchMode is not grouped under MaskSim")
	}
	r.SetMask(MaskAll)
	if !r.Wants(KBatchMode) {
		t.Error("KBatchMode cannot be enabled via MaskAll")
	}
	if KBatchMode.String() != "batch" {
		t.Errorf("KBatchMode renders as %q, want \"batch\"", KBatchMode.String())
	}
}
