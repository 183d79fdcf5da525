package sim

import (
	"testing"
	"time"
)

// switchPair spawns two processes that pass the baton back and forth
// forever, one of them pausing the kernel after every `every` of its
// turns. With sleepers unset they ping-pong over two Events; with it
// set each sleeps one time unit per turn, falling due together, so no
// sleep can take the inline fast path.
func switchPair(k *Kernel, sleepers bool, every int) {
	if sleepers {
		for i, name := range []string{"a", "b"} {
			k.Spawn(name, func(p *Proc) {
				for {
					for j := 0; j < every; j++ {
						p.Sleep(1)
					}
					if i == 0 {
						k.Pause()
					}
				}
			})
		}
		return
	}
	ping, pong := k.NewEvent("ping"), k.NewEvent("pong")
	k.Spawn("pong", func(p *Proc) {
		for {
			p.Wait(ping)
			pong.Notify()
		}
	})
	k.Spawn("ping", func(p *Proc) {
		for {
			for j := 0; j < every; j++ {
				ping.Notify()
				p.Wait(pong)
			}
			k.Pause()
		}
	})
}

// BenchmarkKernelSwitch measures what one dispatch costs: the pick plus
// the goroutine switch that hands the baton on. An op is one turn of
// the pausing process.
func BenchmarkKernelSwitch(b *testing.B) {
	for _, bc := range []struct {
		name     string
		sleepers bool
	}{{"pingpong", false}, {"sleepers", true}} {
		b.Run(bc.name, func(b *testing.B) {
			k := NewKernel()
			switchPair(k, bc.sleepers, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			if st, err := k.Run(); err != nil || st != RunPaused {
				b.Fatalf("run = %v %v", st, err)
			}
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(k.Dispatches()), "ns/dispatch")
			if err := k.Shutdown(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestDispatchDoesNotAllocate pins the steady state of both switch
// scenarios at zero allocations: once the queues have grown, a run of
// dispatches, wakes and slow-path sleeps allocates nothing.
func TestDispatchDoesNotAllocate(t *testing.T) {
	for _, sleepers := range []bool{false, true} {
		const every = 64
		k := NewKernel()
		switchPair(k, sleepers, every)
		if st, err := k.Run(); err != nil || st != RunPaused {
			t.Fatalf("run = %v %v", st, err)
		}
		before := k.Dispatches()
		allocs := testing.AllocsPerRun(20, func() {
			k.Resume()
			k.Run()
		})
		if got := k.Dispatches() - before; got < 21*every {
			t.Fatalf("sleepers=%v: %d dispatches in 21 runs of %d turns; the pair did not switch", sleepers, got, every)
		}
		if allocs != 0 {
			t.Errorf("sleepers=%v: %.1f allocations per run of %d turns, want 0", sleepers, allocs, every)
		}
		if err := k.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}
