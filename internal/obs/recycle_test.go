package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dfdbg/internal/ckpt/wire"
)

// A released recorder's storage goes to the next recorder of the same
// capacity, every time; the released recorder is empty with capacity 0.
func TestReleasedStorageIsReused(t *testing.T) {
	const capacity = 37 // a capacity no other test uses
	for i := 0; i < 20; i++ {
		r := NewRecorder(capacity)
		for j := 0; j < capacity+i; j++ { // wrap the ring on every round but the first
			r.Record(Event{At: uint64(j), Kind: KPush, Actor: "a", Val: "payload"})
		}
		st := r.st
		r.Release()
		r.Release() // idempotent
		if r.Cap() != 0 || r.Len() != 0 || r.Total() != 0 || len(r.Snapshot()) != 0 {
			t.Fatalf("released recorder: cap=%d len=%d total=%d", r.Cap(), r.Len(), r.Total())
		}
		next := NewRecorder(capacity)
		if next.st != st {
			t.Fatalf("round %d: the next recorder did not reuse the released storage", i)
		}
		if next.Cap() != capacity || next.Len() != 0 || next.Total() != 0 {
			t.Fatalf("next recorder: cap=%d len=%d total=%d", next.Cap(), next.Len(), next.Total())
		}
		next.Release()
	}
	if other := NewRecorder(capacity + 1); other.Cap() != capacity+1 {
		t.Errorf("a recorder of another capacity got cap %d", other.Cap())
	}
	var nilRec *Recorder
	nilRec.Release()
}

// The spare list is bounded: releasing more recorders than it keeps
// leaves only the most recent maxSpares spare.
func TestSpareListIsBounded(t *testing.T) {
	const capacity = 43
	var recs []*Recorder
	for i := 0; i < maxSpares+3; i++ {
		recs = append(recs, NewRecorder(capacity))
	}
	for _, r := range recs {
		r.Release()
	}
	spares.Lock()
	n := len(spares.free)
	spares.Unlock()
	if n != maxSpares {
		t.Fatalf("spare list holds %d storages, want %d", n, maxSpares)
	}
}

// Storage reused from a previous world never shows that world: its
// events, names and payloads are absent from every read path, and the
// new world reads and encodes exactly as on fresh storage.
func TestReusedStorageHidesPreviousWorld(t *testing.T) {
	const capacity = 53
	fresh := NewRecorder(capacity) // taken before old's storage is spare
	old := NewRecorder(capacity)
	for i := 0; i < 3*capacity; i++ {
		old.Record(Event{At: uint64(i), Kind: KPop, Link: 9, Arg: 77,
			Actor: fmt.Sprintf("old-actor-%d", i%5), Other: "old-peer", Port: "old-port",
			Val: strings.Repeat("old-payload ", 1+i%4)})
	}
	oldStorage := old.st
	old.Release()
	reused := NewRecorder(capacity)
	if reused.st != oldStorage {
		t.Fatal("the recorder did not reuse the released storage")
	}
	for _, r := range []*Recorder{fresh, reused} {
		for i := 0; i < 5; i++ {
			r.Record(Event{At: uint64(100 + i), Kind: KPush, Actor: "new", Other: "peer", Port: "o", Val: fmt.Sprint(i)})
		}
		r.Record(Event{At: 200, Kind: KFireBegin, Actor: "new"})
	}
	for _, name := range reused.st.names {
		if strings.HasPrefix(name, "old-") {
			t.Errorf("the reused name table still holds %q", name)
		}
	}
	if n := reused.st.valEnd - reused.st.valOff; n != fresh.st.valEnd-fresh.st.valOff {
		t.Errorf("the reused arena holds %d payload bytes, fresh storage %d", n, fresh.st.valEnd-fresh.st.valOff)
	}
	want, got := fresh.Snapshot(), reused.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("reused Snapshot has %d events, want %d", len(got), len(want))
	}
	var ranged []Event
	reused.Range(func(ev Event) bool { ranged = append(ranged, ev); return true })
	windowed, first := reused.Window(0, 0)
	if first != 0 {
		t.Errorf("reused Window starts at %d", first)
	}
	for i := range want {
		if got[i] != want[i] || ranged[i] != want[i] || windowed[i] != want[i] {
			t.Fatalf("event %d: Snapshot %+v, Range %+v, Window %+v, want %+v", i, got[i], ranged[i], windowed[i], want[i])
		}
	}
	we, ge := wire.NewWriter(), wire.NewWriter()
	fresh.EncodeState(we)
	reused.EncodeState(ge)
	if !bytes.Equal(we.Data(), ge.Data()) {
		t.Error("reused storage encodes differently from fresh storage")
	}
	fresh.Release()
	reused.Release()
}

// Recording into a released recorder panics rather than writing into
// storage another recorder may own.
func TestRecordAfterReleasePanics(t *testing.T) {
	r := NewRecorder(59)
	r.Release()
	defer func() {
		if recover() == nil {
			t.Error("Record on a released recorder did not panic")
		}
	}()
	r.Record(Event{Kind: KPush, Actor: "a"})
}

// A ring slot stays 48 bytes with no pointers in it: the ring's
// footprint (with one recycled spare) and the collector never scanning
// it both rest on that.
func TestSlotIsCompactAndPointerFree(t *testing.T) {
	typ := reflect.TypeOf(slot{})
	if typ.Size() > 48 {
		t.Errorf("slot is %d bytes, want at most 48", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int32, reflect.Int64, reflect.Uint8, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("slot field %s has kind %s, which may hold a pointer", f.Name, f.Type.Kind())
		}
	}
}
