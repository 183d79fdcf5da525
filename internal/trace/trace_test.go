package trace

import (
	"testing"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
)

// Attach reuses the recorder already on the kernel, and turns payload
// rendering and the dataflow kinds on.
func TestAttachReusesRecorderAndRendersPayloads(t *testing.T) {
	k := sim.NewKernel()
	orec := obs.NewRecorder(8)
	defer orec.Release()
	orec.SetMask(0)
	k.SetObserver(orec)
	rec := Attach(lowdbg.New(k, dbginfo.NewTable()))
	if rec.rec != orec || k.Observer() != orec {
		t.Fatal("Attach did not reuse the installed recorder")
	}
	if !orec.Payloads() {
		t.Error("Attach left payload rendering off")
	}
	if orec.Mask()&obs.MaskDataflow != obs.MaskDataflow {
		t.Errorf("mask = %#x, want the dataflow kinds %#x", orec.Mask(), obs.MaskDataflow)
	}
}
