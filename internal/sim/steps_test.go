package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// stepsWorld runs a seeded random mix of processes that compute (a run
// of fixed-cost steps), sleep, notify events, notify them late and wait
// on them with a timeout. Every action other than computing is logged
// with the time and the acting process. With batched set, computing is
// one SleepSteps call; otherwise it is a loop of Sleep(step).
func stepsWorld(seed int64, batched bool) (string, Time) {
	const step = 2
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	evs := make([]*Event, 3)
	for i := range evs {
		evs[i] = k.NewEvent(fmt.Sprintf("ev%d", i))
	}
	var log strings.Builder
	nprocs := 2 + rng.Intn(5)
	for i := 0; i < nprocs; i++ {
		type op struct{ kind, n int }
		ops := make([]op, 4+rng.Intn(12))
		for j := range ops {
			ops[j] = op{rng.Intn(6), 1 + rng.Intn(20)}
		}
		name := fmt.Sprintf("p%d", i)
		k.Spawn(name, func(p *Proc) {
			for j, o := range ops {
				if o.kind <= 1 { // compute, twice as likely as the rest
					if batched {
						p.SleepSteps(o.n, step)
					} else {
						for s := 0; s < o.n; s++ {
							p.Sleep(step)
						}
					}
					continue
				}
				fmt.Fprintf(&log, "%d %s op%d\n", p.Now(), name, j)
				ev := evs[o.n%len(evs)]
				switch o.kind {
				case 2:
					p.Sleep(Duration(o.n))
				case 3:
					ev.Notify()
				case 4:
					ev.NotifyAfter(Duration(o.n))
				case 5:
					p.WaitTimeout(ev, Duration(2*o.n))
				}
			}
		})
	}
	if st, err := k.Run(); err != nil || st != RunIdle {
		panic(fmt.Sprintf("run = %v %v", st, err))
	}
	return log.String(), k.Now()
}

// TestSleepStepsMatchesStepLoop is the kernel-level differential for
// SleepSteps: over many random worlds, paying runs of steps in one call
// must leave every other action at the same time and in the same order
// as sleeping step by step, ties between same-instant wakeups included.
func TestSleepStepsMatchesStepLoop(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		refLog, refT := stepsWorld(seed, false)
		gotLog, gotT := stepsWorld(seed, true)
		if refLog != gotLog || refT != gotT {
			t.Fatalf("seed %d: SleepSteps world diverged (end %d vs %d)\n--- step loop\n%s--- SleepSteps\n%s",
				seed, refT, gotT, refLog, gotLog)
		}
	}
}

// TestSleepStepsPausesAtHorizon checks that a horizon inside a run of
// steps stops the clock there, that the next run finishes the steps,
// and that Shutdown unwinds a process parked between steps.
func TestSleepStepsPausesAtHorizon(t *testing.T) {
	k := NewKernel()
	other := k.NewEvent("other")
	k.Spawn("busy", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(3) // keeps a note pending, so steps go through the heap
			other.Notify()
		}
	})
	done := false
	k.Spawn("stepper", func(p *Proc) {
		p.SleepSteps(50, 2)
		done = true
	})
	if st, err := k.RunUntil(41); err != nil || st != RunHorizon {
		t.Fatalf("RunUntil = %v %v", st, err)
	}
	if k.Now() != 41 || done {
		t.Fatalf("at the horizon: now %d, done %v", k.Now(), done)
	}
	if st, err := k.RunUntil(100); err != nil || st != RunHorizon || !done {
		t.Fatalf("second run = %v %v, done %v", st, err, done)
	}

	k2 := NewKernel()
	k2.Spawn("stepper", func(p *Proc) { p.SleepSteps(50, 2) })
	k2.Spawn("busy", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	if st, err := k2.RunUntil(21); err != nil || st != RunHorizon {
		t.Fatalf("RunUntil = %v %v", st, err)
	}
	if err := k2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}
