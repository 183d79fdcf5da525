package main

import (
	"runtime/debug"
	"time"
)

// The reference host is a guest on a shared machine, and how fast the
// same build runs there drifts with what else the machine is doing: the
// host switches between a fast and a slow state every few seconds to
// minutes, and a run's median decode moved by 30-50% between runs.
// Three quarters of the program's CPU time is the Go runtime (goroutine
// switches between the simulator's processes, allocation, GC), and the
// drift follows the runtime's own speed: over six 15 s decode runs, the
// run's median decode and the median time of a fixed goroutine
// ping-pong taken between its iterations correlated at 0.95, the decode
// moving as the probe's time to the power 0.84, while a memory pointer
// chase and a hash loop did not follow it. Over 12 runs of each
// workload, the end-to-end medians moved as the probe's time to powers
// of 0.9-1.1.
//
// So the loops time that ping-pong before each iteration (and each long
// command), and every end-to-end timing is recorded scaled by
// probeRefMs over the median of the probes taken just before it: what
// it would read with the runtime as fast as when probeRefMs was taken.
// The probe is the benchmark's own code and runs none of the program's,
// so a change to the program moves the scaled timings as much as the
// raw ones. The report prints both, and the probe's median.

const (
	probeTrips = 2000 // channel round trips per probe
	probeReps  = 3    // probes per call
	probeRefMs = 1.25 // the probe's median on the reference host
)

// probeHost times probeReps goroutine ping-pongs as one lane span and
// records each. GC is paused around them (SetGCPercent(-1) first waits
// for a running cycle to end), so a collection the workload started
// neither runs inside the probe nor changes what it measures.
func (l *ledger) probeHost() {
	t := time.Now()
	gc := debug.SetGCPercent(-1)
	probes := make([]float64, probeReps)
	for i := range probes {
		probes[i] = ms(pingPong(probeTrips))
		l.sample("host.probe_ms", probes[i])
	}
	debug.SetGCPercent(gc)
	l.mu.Lock()
	l.scale = probeRefMs / summarize(probes).P50
	l.mu.Unlock()
	l.span("bench.probe", t)
}

// pingPong bounces a value between this goroutine and a partner n times
// over unbuffered channels, i.e. 2n goroutine switches, and returns how
// long the trips took. The partner has exited when it returns.
func pingPong(n int) time.Duration {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	t := time.Now()
	for i := 0; i < n; i++ {
		ping <- i
		<-pong
	}
	d := time.Since(t)
	close(ping)
	<-pong
	return d
}
