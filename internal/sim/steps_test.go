package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"dfdbg/internal/obs"
)

// stepsWorld runs a seeded random mix of processes that compute (a run
// of fixed-cost steps), sleep, notify events, notify them late and wait
// on them with a timeout. Every action other than computing is logged
// with the time and the acting process. With batched set, computing is
// one SleepSteps call; otherwise it is a loop of Sleep(step).
func stepsWorld(seed int64, batched bool) (string, Time) {
	k, log := richWorld(seed, batched, false, nil)
	return log, k.Now()
}

// richWorld is stepsWorld, and with rich set it widens the mix to the
// kernel's whole control surface: processes also yield, pause the
// kernel, freeze and thaw each other, note progress and run marathons
// long enough to cross the fast path's 4096-sleep cadence. The driver
// then runs to random horizons, resumes after every pause, thaws every
// frozen process after every return, arms a watchdog that trips on some
// seeds and a wall budget that never trips on others, and shuts the
// kernel down mid-run on some. rec, when not nil, is installed as the
// kernel's observer before the first process is spawned.
func richWorld(seed int64, batched, rich bool, rec *obs.Recorder) (*Kernel, string) {
	const step = 2
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	k.SetObserver(rec)
	evs := make([]*Event, 3)
	for i := range evs {
		evs[i] = k.NewEvent(fmt.Sprintf("ev%d", i))
	}
	var log strings.Builder
	compute := func(p *Proc, n int, step Duration) {
		if batched {
			p.SleepSteps(n, step)
			return
		}
		for s := 0; s < n; s++ {
			p.Sleep(step)
		}
	}
	kinds := 6
	if rich {
		kinds = 12
	}
	nprocs := 2 + rng.Intn(5)
	procs := make([]*Proc, nprocs)
	for i := 0; i < nprocs; i++ {
		type op struct{ kind, n int }
		ops := make([]op, 4+rng.Intn(12))
		for j := range ops {
			ops[j] = op{rng.Intn(kinds), 1 + rng.Intn(20)}
		}
		name := fmt.Sprintf("p%d", i)
		procs[i] = k.Spawn(name, func(p *Proc) {
			for j, o := range ops {
				if o.kind <= 1 { // compute, twice as likely as the rest
					compute(p, o.n, step)
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
				case 6:
					p.YieldNow()
				case 7:
					k.Pause()
				case 8:
					procs[o.n%nprocs].Freeze()
				case 9:
					procs[o.n%nprocs].Thaw()
				case 10:
					if o.n > 16 { // a marathon, one time in five
						compute(p, 4100, 1)
					} else {
						compute(p, o.n, 1)
					}
				case 11:
					k.NoteProgress()
				}
			}
		})
	}
	if !rich {
		if st, err := k.Run(); err != nil || st != RunIdle {
			panic(fmt.Sprintf("run = %v %v", st, err))
		}
		return k, log.String()
	}

	drv := rand.New(rand.NewSource(^seed))
	if drv.Intn(2) == 0 {
		k.SetWatchdog(Duration(20 + drv.Intn(200)))
	}
	if drv.Intn(2) == 0 {
		k.SetWallBudget(time.Hour)
	}
	shutdownAt := -1
	if drv.Intn(3) == 0 {
		shutdownAt = drv.Intn(8)
	}
	for round := 0; round < 200; round++ {
		until := TimeForever
		if drv.Intn(2) == 0 {
			until = k.Now() + Time(1+drv.Intn(60))
		}
		st, err := k.RunUntil(until)
		if err != nil {
			panic(fmt.Sprintf("run = %v %v", st, err))
		}
		fmt.Fprintf(&log, "run %v t=%d\n", st, k.Now())
		if st == RunStalled {
			fmt.Fprintf(&log, "%s\n", k.LastStall())
		}
		k.Resume()
		thawed := false
		for _, p := range procs {
			if p.Frozen() {
				p.Thaw()
				thawed = true
			}
		}
		if round == shutdownAt {
			fmt.Fprintf(&log, "shutdown t=%d\n", k.Now())
			break
		}
		if !thawed && (st == RunIdle || st == RunStalled && k.LastStall().Idle) {
			break
		}
	}
	if err := k.Shutdown(); err != nil {
		panic(err)
	}
	return k, log.String()
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

// scheduleDigest runs one rich world with every obs kind recorded and
// hashes the full event stream, the action log, the dispatch and
// advance counters and the final time.
func scheduleDigest(seed int64, batched bool) (digest []byte, log string) {
	var buf []byte
	rec := obs.NewRecorder(64)
	rec.SetMask(obs.MaskAll)
	rec.SetTap(func(ev obs.Event, seq uint64) {
		for _, v := range [...]uint64{seq, ev.At, uint64(ev.Kind), uint64(ev.PE), uint64(ev.Link), uint64(ev.Arg), uint64(ev.Arg2)} {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		for _, s := range [...]string{ev.Actor, ev.Other, ev.Port, ev.Val} {
			buf = append(append(buf, s...), 0)
		}
	})
	k, log := richWorld(seed, batched, true, rec)
	buf = fmt.Appendf(buf, "%s\ndispatches %d advances %d now %d\n", log, k.Dispatches(), k.advances, k.Now())
	sum := sha256.Sum256(buf)
	return sum[:8], log
}

// TestScheduleDigest pins the kernel's schedule: over 300 rich worlds,
// run step by step and with SleepSteps, the obs stream, the action
// log, the dispatch and advance counters and the final time must hash
// to the digests in testdata/schedule_digest.txt. Any change to which
// process runs when, or to how many dispatches and advances that
// takes, shows up here. The two variants must also log the same
// actions at the same times.
func TestScheduleDigest(t *testing.T) {
	var got strings.Builder
	for seed := int64(1); seed <= 300; seed++ {
		ref, refLog := scheduleDigest(seed, false)
		bat, batLog := scheduleDigest(seed, true)
		if refLog != batLog {
			t.Fatalf("seed %d: SleepSteps world diverged\n--- step loop\n%s--- SleepSteps\n%s", seed, refLog, batLog)
		}
		fmt.Fprintf(&got, "%d %x %x\n", seed, ref, bat)
	}
	want, err := os.ReadFile("testdata/schedule_digest.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("schedule digest changed at line %d:\n got %s\nwant %s", i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatal("schedule digest changed")
	}
}
