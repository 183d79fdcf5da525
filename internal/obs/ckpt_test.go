package obs

import (
	"bytes"
	"fmt"
	"testing"

	"dfdbg/internal/ckpt/wire"
)

// encodeStateByRecord is the reference encoder EncodeState must match:
// it copies the kept events out of the ring and encodes each record
// into a writer of its own before length-prefixing it into w.
func encodeStateByRecord(r *Recorder, w *wire.Writer) {
	var evs []Event
	r.Range(func(ev Event) bool {
		if !stateSkip(ev.Kind) {
			evs = append(evs, ev)
		}
		return true
	})
	if r.head > uint64(len(r.ring)) {
		limit := len(r.ring) - ckptSlack
		if limit < 0 {
			limit = 0
		}
		if len(evs) > limit {
			evs = evs[len(evs)-limit:]
		}
	}
	w.U32(uint32(len(evs)))
	for _, ev := range evs {
		rec := wire.NewWriter()
		encodeEvent(rec, ev)
		w.Bytes(rec.Data())
	}
}

// TestEncodeStateMatchesRecordWriter checks the in-place encoder against
// the reference over empty, partly filled and wrapped rings, with
// checkpoint-lifecycle events interleaved so the wrapped cases exercise
// the ckptSlack window, and checks it allocates only as w grows.
func TestEncodeStateMatchesRecordWriter(t *testing.T) {
	names := []string{"", "a", "filter.mb", "ctl"}
	for _, tc := range []struct{ capacity, n int }{
		{16, 0}, {16, 9}, {512, 3000}, {2048, 1500}, {2048, 9000},
	} {
		r := NewRecorder(tc.capacity)
		for i := 0; i < tc.n; i++ {
			kind := KPush
			switch {
			case i%7 == 0:
				kind = KCheckpoint
			case i%11 == 0:
				kind = KRestore
			case i%5 == 0:
				kind = KBpHit
			}
			r.Record(Event{
				At: uint64(i), Kind: kind, PE: int32(i%4 - 1), Link: int32(i % 9),
				Arg: int64(i * 3), Arg2: -int64(i), Actor: names[i%4],
				Other: names[(i+1)%4], Port: names[(i+2)%4], Val: fmt.Sprint(i % 13),
			})
		}
		want, got := wire.NewWriter(), wire.NewWriter()
		encodeStateByRecord(r, want)
		r.EncodeState(got)
		if !bytes.Equal(got.Data(), want.Data()) {
			t.Fatalf("cap %d, %d events: EncodeState differs from the record-writer encoding", tc.capacity, tc.n)
		}
		allocs := testing.AllocsPerRun(5, func() { r.EncodeState(wire.NewWriter()) })
		if allocs > 40 {
			t.Errorf("cap %d, %d events: EncodeState allocates %.0f times, want only buffer growth", tc.capacity, tc.n, allocs)
		}
	}
}
