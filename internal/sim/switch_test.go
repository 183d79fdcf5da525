package sim

import (
	"runtime"
	"runtime/debug"
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
		before, calls := k.Dispatches(), 0
		allocs := mallocs(20, func() {
			k.Resume()
			k.Run()
			calls++
		})
		if got := k.Dispatches() - before; got < uint64(calls*every) {
			t.Fatalf("sleepers=%v: %d dispatches in %d runs of %d turns; the pair did not switch", sleepers, got, calls, every)
		}
		if allocs != 0 {
			t.Errorf("sleepers=%v: %d allocations over 20 runs of %d turns, want 0", sleepers, allocs, every)
		}
		if err := k.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}

// mallocs runs fn once to warm up, then n times, and returns the heap
// objects allocated over the n runs. A zero pin needs the total:
// testing.AllocsPerRun returns the integer mean, which reads 0 for up
// to n-1 allocations in n runs. The malloc counter is process-wide, so
// with the collector paused it is read over three loops and the least
// is kept: another goroutine's allocation can only add to a loop, and
// fn's own show in every one.
func mallocs(n int, fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}
