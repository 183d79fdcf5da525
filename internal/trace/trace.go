// Package trace is what is left of the trace-analysis view that once
// translated the obs ring into an event model of its own. The CLI's
// `trace` views now fold the obs ring directly (cli.CLI.Obs). perfbench's
// hand-built world still calls Attach and assigns its result to
// cli.CLI.Rec; ROADMAP item 2 deletes this package with that world.
package trace

import (
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/obs"
)

// Recorder is the handle Attach returns. Nothing reads it; it types
// cli.CLI.Rec until ROADMAP item 2 deletes both.
type Recorder struct{ rec *obs.Recorder }

// Attach ensures the debugger's kernel has an obs recorder, enables the
// dataflow event kinds and turns payload rendering on. It is kept for
// perfbench's hand-built world until ROADMAP item 2 deletes it.
func Attach(low *lowdbg.Debugger) *Recorder {
	rec := low.K.Observer()
	if rec == nil {
		rec = obs.NewRecorder(0)
		low.K.SetObserver(rec)
	}
	rec.EnableKinds(obs.MaskDataflow)
	rec.SetPayloads(true)
	return &Recorder{rec: rec}
}
