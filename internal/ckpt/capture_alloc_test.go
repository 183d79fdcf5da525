package ckpt_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"dfdbg/internal/ckpt"
)

// CaptureStack writes every chunk in place into one buffer, back-patching
// each chunk's length, instead of encoding each chunk into a writer of
// its own and copying it into a second one. What one capture allocates
// is then that buffer's growth alone: it stays within a small multiple
// of the state it returns.
func TestCaptureStackAllocatesOneBuffer(t *testing.T) {
	st, err := recipe.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Shutdown()
	if res := st.CLI.Dispatch("continue"); res.Err != nil {
		t.Fatal(res.Err)
	}
	if n := st.Rec.Len(); n < 5000 {
		t.Fatalf("the decode recorded %d events, want at least 5000", n)
	}
	capture := func() []byte {
		b, err := ckpt.CaptureStack(st.K, st.M, st.RT, st.Rec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	state := capture()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		capture()
	}
	runtime.ReadMemStats(&after)
	perCapture := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%d events, %d state bytes, %.0f bytes allocated per capture (%.2fx)",
		st.Rec.Len(), len(state), perCapture, perCapture/float64(len(state)))
	if perCapture > 3*float64(len(state)) {
		t.Errorf("a capture allocates %.0f bytes for %d bytes of state, want at most 3x", perCapture, len(state))
	}
}
