// Checkpoint and restore cost benchmarks (DESIGN §13); CI gates their
// ratio, restore / checkpoint, from both sides:
//
//   - BenchmarkCheckpoint — serializing the full session state (kernel,
//     machine, PEDF runtime with filterc values, fault injector, obs
//     ring) into the versioned self-checksummed container.
//   - BenchmarkRestore — the replay-verified restore: rebuild the whole
//     stack, replay the command journal, re-capture, byte-compare.
package dfdbg

import (
	"testing"

	"dfdbg/internal/ckpt"
	"dfdbg/internal/h264"
	"dfdbg/internal/stack"
)

// ckptBench is the benchmarked world: the decoder with an observer
// installed and a CLI on top, so the journal replays command lines.
var ckptBench = stack.Recipe{Params: h264.Params{W: 16, H: 16, QP: 8, Seed: 7}, Ring: 1 << 14, Lazy: true}

// BenchmarkCheckpoint measures capturing one checkpoint of a completed
// 16x16 decode — the worst-case state (full frame assembled, obs ring
// populated, scheduler drained).
func BenchmarkCheckpoint(b *testing.B) {
	mgr := ckpt.NewManager(ckptBench.Target)
	mgr.Limit = 2
	t, err := mgr.Build()
	if err != nil {
		b.Fatal(err)
	}
	st := t.(*stack.Stack)
	defer st.Shutdown()
	if res := st.CLI.Dispatch("continue"); res.Err != nil {
		b.Fatal(res.Err)
	}
	mgr.Note("continue")
	b.ReportAllocs()
	b.ResetTimer()
	var stateBytes int
	for i := 0; i < b.N; i++ {
		cp, err := mgr.Capture(st, "bench", uint64(st.K.Now()), 0)
		if err != nil {
			b.Fatal(err)
		}
		stateBytes = len(cp.State)
	}
	b.ReportMetric(float64(stateBytes), "state_bytes")
}

// BenchmarkRestore measures the full replay-verified restore: rebuild
// the stack from scratch, replay the journaled decode, re-capture the
// state, and byte-compare it against the checkpoint.
func BenchmarkRestore(b *testing.B) {
	mgr := ckpt.NewManager(ckptBench.Target)
	mgr.Limit = 2
	t, err := mgr.Build()
	if err != nil {
		b.Fatal(err)
	}
	st := t.(*stack.Stack)
	defer st.Shutdown()
	if res := st.CLI.Dispatch("continue"); res.Err != nil {
		b.Fatal(res.Err)
	}
	mgr.Note("continue")
	cp, err := mgr.Capture(st, "bench", uint64(st.K.Now()), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nt, err := mgr.Restore(mgr.Find(cp.ID))
		if err != nil {
			b.Fatal(err)
		}
		nt.(*stack.Stack).Shutdown()
	}
}
