package pedf

import (
	"fmt"

	"dfdbg/internal/ckpt/wire"
	"dfdbg/internal/filterc"
)

// UnflushedLazy sums the banked-but-unflushed lazy compute time across
// all actors (DESIGN §12). At a stopped world every parked actor has
// settled its bank — flushLazy runs before any externally observable
// action — so a nonzero total means the capture point is invalid.
func (rt *Runtime) UnflushedLazy() uint64 {
	var total uint64
	for _, f := range rt.actorList {
		total += uint64(f.lazyStmts) * uint64(rt.M.Cfg.CycleTime)
	}
	return total
}

// EncodeState serializes the runtime's deterministic dataflow state for
// checkpoint capture (DESIGN §13): per-module step protocol state,
// per-actor FSM state (with data/attribute objects and firing
// counters), per-link ring contents (head-normalized, so two rings
// holding the same tokens encode identically regardless of physical
// layout), and collector contents. It returns an error if any actor
// still banks unflushed lazy time — the snapshot invariant the batched
// engine must uphold.
func (rt *Runtime) EncodeState(w *wire.Writer) error {
	if lz := rt.UnflushedLazy(); lz != 0 {
		return fmt.Errorf("pedf: %dns of unflushed lazy compute time at capture (invariant violation)", lz)
	}

	w.U32(uint32(len(rt.moduleList)))
	for _, m := range rt.moduleList {
		w.Str(m.Name)
		w.U64(m.step)
		w.Bool(m.done)
	}

	w.U32(uint32(len(rt.actorList)))
	for _, f := range rt.actorList {
		w.Str(f.Name)
		w.U8(uint8(f.Role))
		w.U8(uint8(f.state))
		w.Str(f.blockedOn)
		w.Bool(f.startReq)
		w.Bool(f.syncReq)
		w.Bool(f.pendingInit)
		w.Bool(f.pendingSync)
		w.Bool(f.shutdown)
		w.U64(f.firings)
		w.U64(f.blockedNS)
		w.U32(uint32(len(f.dataNames)))
		for _, name := range f.dataNames {
			w.Str(name)
			encodeValuePtr(w, f.data[name])
		}
		w.U32(uint32(len(f.attrNames)))
		for _, name := range f.attrNames {
			w.Str(name)
			encodeValuePtr(w, f.attrs[name])
		}
	}

	w.U32(uint32(len(rt.links)))
	for _, l := range rt.links {
		w.Str(l.Label())
		w.U64(l.pushes)
		w.U64(l.pops)
		w.U64(l.drops)
		w.U32(uint32(l.n))
		for i := 0; i < l.n; i++ {
			t := l.slot(i)
			w.U64(t.Seq)
			w.U64(uint64(t.PushedAt))
			filterc.EncodeValue(w, t.Val)
		}
	}

	w.U32(uint32(len(rt.collectors)))
	for _, c := range rt.collectors {
		w.Str(c.Port.Qualified())
		w.U32(uint32(len(c.Values)))
		for _, v := range c.Values {
			filterc.EncodeValue(w, v)
		}
	}
	return nil
}

func encodeValuePtr(w *wire.Writer, v *filterc.Value) {
	if v == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	filterc.EncodeValue(w, *v)
}
