package serve

import (
	"runtime"
	"sync"
	"testing"

	"dfdbg/internal/obs"
	"dfdbg/internal/web"
)

// execOK runs one command line and fails the test on any error.
func execOK(t *testing.T, s *Session, line string) {
	t.Helper()
	if res, err := s.Exec(line); err != nil || res.Err != nil {
		t.Fatalf("%s: %v %v", line, err, res.Err)
	}
}

// A retired world hands its obs storage back as soon as it is retired:
// a restore swap releases the old world's recorder, and teardown the
// live one's. The obs tests pin that released storage is reused.
func TestRetiredWorldReleasesItsRing(t *testing.T) {
	mgr := NewManager(4, 0)
	s, err := mgr.Create(*tinyParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// The session goroutine swaps in a restored world after replying,
	// so each read of recPtr follows a query: commands run in order,
	// after the swap.
	var boot *obs.Recorder
	for _, line := range []string{"info filters", "continue", "reverse-step", "info filters"} {
		execOK(t, s, line)
		if boot == nil {
			boot = s.recPtr.Load()
		}
	}
	live := s.recPtr.Load()
	if live == boot {
		t.Fatal("reverse-step did not swap in a rebuilt world")
	}
	if boot.Cap() != 0 {
		t.Errorf("the retired world's ring survived the swap (cap %d)", boot.Cap())
	}
	if live.Cap() != 1<<16 {
		t.Errorf("the live world's ring has cap %d, want %d", live.Cap(), 1<<16)
	}
	s.Close("test")
	if live.Cap() != 0 {
		t.Errorf("the live world's ring survived teardown (cap %d)", live.Cap())
	}
}

// A served reverse-step rebuilds the world from its recipe and replays
// the journal. The rebuilt world's recorder reuses the retired world's
// storage, so the step allocates well under the 6.8 MB one fresh
// 65,536-event ring used to cost.
func TestReverseStepAllocationBound(t *testing.T) {
	mgr := NewManager(4, 0)
	defer mgr.CloseAll()
	s, err := mgr.Create(*tinyParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	execOK(t, s, "filter pipe catch work")
	execOK(t, s, "continue")
	execOK(t, s, "reverse-step") // the first rebuild may allocate storage
	var ms runtime.MemStats
	least := ^uint64(0)
	for i := 0; i < 4; i++ {
		execOK(t, s, "continue")
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		execOK(t, s, "reverse-step")
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	t.Logf("least bytes allocated by a reverse-step: %d", least)
	if least >= 1<<20 {
		t.Errorf("a served reverse-step allocates %d bytes, want < 1 MB", least)
	}
}

// The web layer reaches a session's recorder lock-free through recPtr
// (attaching a live stream sets the recorder's tap) while the session
// goroutine retires worlds on every reverse-step and hands their
// storage to the next. Run under -race.
func TestWebStreamDuringRestoreSwap(t *testing.T) {
	mgr := NewManager(4, 0)
	defer mgr.CloseAll()
	s, err := mgr.Create(*tinyParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	execOK(t, s, "filter pipe catch work")
	h := &webHost{s: s}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cancel, err := h.Stream(web.NewStream(8))
			if err != nil {
				t.Errorf("stream: %v", err)
				return
			}
			_ = h.StallSnapshot()
			cancel()
		}
	}()
	for i := 0; i < 6; i++ {
		execOK(t, s, "continue")
		execOK(t, s, "reverse-step")
	}
	close(stop)
	wg.Wait()
}

// BenchmarkServedReverseStep times one served reverse-step (rebuild from
// the recipe, journal replay, world swap) with its heap bytes; the
// continue that gives each step something to undo runs untimed.
func BenchmarkServedReverseStep(b *testing.B) {
	mgr := NewManager(4, 0)
	defer mgr.CloseAll()
	s, err := mgr.Create(*tinyParams)
	if err != nil {
		b.Fatalf("create: %v", err)
	}
	exec := func(line string) {
		if res, err := s.Exec(line); err != nil || res.Err != nil {
			b.Fatalf("%s: %v %v", line, err, res.Err)
		}
	}
	exec("filter pipe catch work")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		exec("continue")
		b.StartTimer()
		exec("reverse-step")
	}
}
