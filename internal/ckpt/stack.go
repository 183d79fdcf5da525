package ckpt

import (
	"dfdbg/internal/ckpt/wire"
	"dfdbg/internal/mach"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// CaptureStack serializes the full kernel stack into the chunked state
// blob the manager verifies against: sim (clock, procs, schedule),
// mach (memory/DMA counters), fault (trigger state, present only when
// a plan is armed), pedf (actor FSMs, link rings, collectors), and obs
// (the recorded event stream). m, rt and rec may be nil for partial
// stacks; the corresponding chunks are omitted.
//
// Must be called from the driver goroutine while the kernel is stopped
// — the same discipline as every kernel method.
func CaptureStack(k *sim.Kernel, m *mach.Machine, rt *pedf.Runtime, rec *obs.Recorder) ([]byte, error) {
	// Each chunk is its name, then its state as a length-prefixed blob
	// encoded in place (wire.Writer.BeginBytes).
	w := wire.NewWriter()
	chunk := func(name string, encode func(*wire.Writer) error) error {
		w.Str(name)
		at := w.BeginBytes()
		err := encode(w)
		w.EndBytes(at)
		return err
	}
	chunk("sim", func(w *wire.Writer) error { k.EncodeState(w); return nil })
	if m != nil {
		chunk("mach", func(w *wire.Writer) error { m.EncodeState(w); return nil })
	}
	if inj := k.Faults(); inj != nil {
		chunk("fault", func(w *wire.Writer) error { inj.EncodeState(w); return nil })
	}
	if rt != nil {
		if err := chunk("pedf", rt.EncodeState); err != nil {
			return nil, err
		}
	}
	if rec != nil {
		chunk("obs", func(w *wire.Writer) error { rec.EncodeState(w); return nil })
	}
	return w.Data(), nil
}
