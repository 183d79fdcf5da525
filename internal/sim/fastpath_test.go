package sim

import (
	"testing"

	"dfdbg/internal/obs"
)

// TestSleepFastPathSkipsDispatch verifies the inline sleep fast path: a
// lone runnable process advancing the clock must not pay a scheduler
// pass per sleep. The clock and the advance counter behave as if
// every sleep had gone through the note heap.
func TestSleepFastPathSkipsDispatch(t *testing.T) {
	const n = 10_000
	k := NewKernel()
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(3)
		}
	})
	if st, err := k.Run(); err != nil || st != RunIdle {
		t.Fatalf("run = %v %v", st, err)
	}
	if k.Now() != 3*n {
		t.Errorf("final time = %d, want %d", k.Now(), 3*n)
	}
	if k.advances != n {
		t.Errorf("advances = %d, want %d (one per sleep)", k.advances, n)
	}
	// One dispatch starts the process; the liveness budget (fastSleeps)
	// forces a full scheduler pass every 4096 inline advances, so a few
	// more dispatches are expected — but nowhere near one per sleep.
	if k.dispatches > 1+n/4096+1 {
		t.Errorf("dispatches = %d; the fast path did not engage", k.dispatches)
	}
}

// TestSleepFastPathRecordsTimeAdvance checks trace identity: an inline
// advance must record the same KTimeAdvance event an eager (note-heap)
// advance would, so enabling the fast path cannot change a trace.
func TestSleepFastPathRecordsTimeAdvance(t *testing.T) {
	k := NewKernel()
	rec := obs.NewRecorder(1 << 12)
	rec.SetMask(obs.MaskAll)
	k.SetObserver(rec)
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		p.Sleep(50)
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var advances []obs.Event
	for _, ev := range rec.Snapshot() {
		if ev.Kind == obs.KTimeAdvance {
			advances = append(advances, ev)
		}
	}
	if len(advances) != 2 {
		t.Fatalf("KTimeAdvance events = %d, want 2: %+v", len(advances), advances)
	}
	if advances[0].At != 100 || advances[0].Arg != 100 {
		t.Errorf("first advance = %+v, want At=100 Arg=100", advances[0])
	}
	if advances[1].At != 150 || advances[1].Arg != 50 {
		t.Errorf("second advance = %+v, want At=150 Arg=50", advances[1])
	}
}

// TestSleepFastPathTieYieldsToEarlierNote pins the strict-inequality
// guard: when another note is already scheduled at exactly the wake
// time, the sleep must go through the heap so the earlier-scheduled
// note fires first (seq order), exactly as before the fast path.
func TestSleepFastPathTieYieldsToEarlierNote(t *testing.T) {
	k := NewKernel()
	ev := k.NewEvent("never")
	var order []string
	k.Spawn("timeout-waiter", func(p *Proc) {
		p.WaitTimeout(ev, 100) // schedules its timeout note first
		order = append(order, "waiter")
	})
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100) // same wake instant; must not jump the queue
		order = append(order, "sleeper")
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "waiter" || order[1] != "sleeper" {
		t.Errorf("wake order = %v, want [waiter sleeper]", order)
	}
}

// TestSleepFastPathStopsAtHorizon verifies the fast path cannot advance
// the clock past a RunUntil horizon: the wake beyond the horizon must
// park in the heap so the kernel pauses at the boundary.
func TestSleepFastPathStopsAtHorizon(t *testing.T) {
	k := NewKernel()
	done := false
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10)
		p.Sleep(1000) // crosses the horizon
		done = true
	})
	st, err := k.RunUntil(500)
	if err != nil {
		t.Fatal(err)
	}
	if st != RunHorizon {
		t.Fatalf("status = %v, want horizon", st)
	}
	if k.Now() != 500 || done {
		t.Fatalf("clock = %d (done=%v), want paused at 500", k.Now(), done)
	}
	if st, err := k.Run(); err != nil || st != RunIdle {
		t.Fatalf("resume = %v %v", st, err)
	}
	if k.Now() != 1010 || !done {
		t.Fatalf("final clock = %d (done=%v), want 1010", k.Now(), done)
	}
}

// TestSleepFastPathRespectsWatchdog verifies a lone sleeper cannot
// inline-advance past the stall threshold: the watchdog must still trip
// even when no other process ever becomes runnable.
func TestSleepFastPathRespectsWatchdog(t *testing.T) {
	k := NewKernel()
	k.SetWatchdog(50)
	var progressed Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10) // under the threshold: fine
		k.NoteProgress()
		progressed = p.Now()
		p.Sleep(10_000) // way past the stall threshold
	})
	st, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st != RunStalled {
		t.Fatalf("status = %v, want stalled", st)
	}
	if progressed != 10 {
		t.Errorf("progress marker at %d, want 10", progressed)
	}
}
