package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"dfdbg/internal/obs"
)

// settleGoroutines waits for the goroutine count to fall back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: base %d, now %d (leak)", base, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// runRecovering runs k to completion and returns what RunUntil panicked
// with, if anything.
func runRecovering(k *Kernel) (st RunStatus, panicked any, err error) {
	defer func() { panicked = recover() }()
	st, err = k.Run()
	return st, nil, err
}

// TestSchedulerPanicReachesDriver pins the failure route of the direct
// handoff: a panic the scheduler raises while a process goroutine holds
// the baton (here an obs tap, on a KDispatch or on a KEventFire that a
// timed note records) is re-raised by RunUntil on the driver with the
// same value. It must not be caught by the process's own recovers and
// blamed on it as a PanicError.
func TestSchedulerPanicReachesDriver(t *testing.T) {
	for _, kind := range []obs.Kind{obs.KDispatch, obs.KEventFire} {
		t.Run(kind.String(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			boom := errors.New("tap boom")
			k := NewKernel()
			rec := obs.NewRecorder(64)
			rec.SetMask(obs.MaskAll)
			k.SetObserver(rec)
			ev := k.NewEvent("late")
			var caught any
			body := func(p *Proc) {
				defer func() {
					// Stands in for a runtime layer's crash containment.
					if r := recover(); r != nil {
						if r != errProcShutdown {
							caught = r
						}
						panic(r)
					}
				}()
				ev.NotifyAfter(5)
				p.Wait(ev)
			}
			k.Spawn("a", body)
			k.Spawn("b", body)
			rec.SetTap(func(e obs.Event, _ uint64) {
				// The first dispatch is picked on the driver; b's is
				// picked on a's goroutine, as is every event fire.
				if e.Kind == kind && (kind != obs.KDispatch || e.Actor == "b") {
					panic(boom)
				}
			})
			st, got, err := runRecovering(k)
			if got != boom {
				t.Fatalf("Run = %v %v, panicked %v; want a re-raised %v", st, err, got, boom)
			}
			if caught != nil {
				t.Fatalf("a process recovered the scheduler's panic: %v", caught)
			}
			rec.SetTap(nil)
			if err := k.Shutdown(); err != nil {
				t.Fatal(err)
			}
			settleGoroutines(t, base)
		})
	}
}

// TestProcessPanicIsRunError checks the other side of the route: a
// panic in a process body is still that process's, reported as a
// RunError carrying a PanicError that names it.
func TestProcessPanicIsRunError(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ev := k.NewEvent("never")
	k.Spawn("waiter", func(p *Proc) { p.Wait(ev) })
	k.Spawn("crasher", func(p *Proc) {
		p.Sleep(3)
		panic("body boom")
	})
	st, got, err := runRecovering(k)
	var pe *PanicError
	if got != nil || st != RunError || !errors.As(err, &pe) || pe.Proc != "crasher" || pe.Value != "body boom" {
		t.Fatalf("Run = %v %v, panicked %v; want RunError with crasher's PanicError", st, err, got)
	}
	if err := k.Shutdown(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base)
}
