package obs

import "dfdbg/internal/ckpt/wire"

// ckptSlack bounds how many checkpoint-lifecycle events can appear in
// one ring window without breaking replay verification on a wrapped
// ring (see EncodeState).
const ckptSlack = 1024

// stateSkip reports whether an event is excluded from checkpoint state
// capture. KCheckpoint/KRestore record supervisor policy (when a
// snapshot was taken), not simulated behaviour: a replayed-from-birth
// session never captures checkpoints, so including them would make
// every verification fail on the first auto-checkpoint.
func stateSkip(k Kind) bool { return k == KCheckpoint || k == KRestore }

// EncodeState serializes the recorded event stream for checkpoint
// capture (DESIGN §13), as a record-structured chunk (u32 count, then
// one length-prefixed record per event) so the replay differ can name
// the first diverging event.
//
// Normalizations that keep the encoding replay-deterministic:
//   - checkpoint-lifecycle events are skipped (see stateSkip);
//   - KBpHit's Arg (wall-clock handler cost, experiment P1's live
//     intrusiveness figure) is zeroed — it is real time, not simulated;
//   - on a wrapped ring only the newest capacity−ckptSlack events are
//     encoded, so the eviction skew introduced by skipped checkpoint
//     events cannot shift the comparison window;
//   - the raw head/dropped counters are omitted (they count skipped
//     events too).
//
// Each record's length prefix and fields go straight into w: no
// per-event writer and no copy of the ring. w grows once, to a bound on
// the chunk's size: the kept events' fixed fields and names, plus the
// whole payload arena.
func (r *Recorder) EncodeState(w *wire.Writer) {
	kept, size := 0, 4
	if st := r.st; st != nil {
		for seq := r.head - uint64(r.Len()); seq < r.head; seq++ {
			if s := r.slot(seq); !stateSkip(s.kind) {
				kept++
				size += 4 + eventFixedLen + len(st.names[s.actor]) + len(st.names[s.other]) + len(st.names[s.port])
			}
		}
		size += int(st.valEnd - st.valOff)
	}
	w.Grow(size)
	skip := 0
	if r.head > uint64(len(r.ring)) { // wrapped: normalize the window
		limit := max(len(r.ring)-ckptSlack, 0)
		skip = max(kept-limit, 0)
	}
	w.U32(uint32(kept - skip))
	r.Range(func(ev Event) bool {
		if stateSkip(ev.Kind) {
			return true
		}
		if skip > 0 {
			skip--
			return true
		}
		w.U32(uint32(eventLen(ev)))
		encodeEvent(w, ev)
		return true
	})
}

// eventFixedLen is the length of a record's fixed-width scalars and
// its four strings' length prefixes.
const eventFixedLen = 8 + 1 + 4*8 + 4*4

// eventLen is the length of ev's record as encodeEvent writes it: six
// fixed-width scalars and four length-prefixed strings.
func eventLen(ev Event) int {
	return eventFixedLen + len(ev.Actor) + len(ev.Other) + len(ev.Port) + len(ev.Val)
}

func encodeEvent(w *wire.Writer, ev Event) {
	arg := ev.Arg
	if ev.Kind == KBpHit {
		arg = 0
	}
	w.U64(ev.At)
	w.U8(uint8(ev.Kind))
	w.I64(int64(ev.PE))
	w.I64(int64(ev.Link))
	w.I64(arg)
	w.I64(ev.Arg2)
	w.Str(ev.Actor)
	w.Str(ev.Other)
	w.Str(ev.Port)
	w.Str(ev.Val)
}
