// Command h264dec runs the case-study video decoder standalone: it
// generates a synthetic frame, encodes it, decodes the bitstream with
// the PEDF dataflow application on the simulated P2012 platform, and
// verifies the output against the pure-Go reference decoder.
//
// Usage:
//
//	h264dec [-w 48] [-h 32] [-qp 8] [-seed 7] [-pgm out.pgm]
//	        [-obs] [-timeline trace.json] [-metrics-addr :9090]
//	        [-http 127.0.0.1:0] [-faults <spec|file>] [-fault-seed N]
//	        [-watchdog 2ms] [-batch]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -http the run serves the web observability UI (implies -obs):
// the kernel runs in simulated-time slices so a browser attached
// mid-decode sees the timeline and dataflow graph advance live, and
// the process waits for Enter before exiting so the final state stays
// inspectable.
//
// With -faults or -fault-seed the run becomes a chaos experiment: the
// reference comparison is skipped, stall reports and the fault trace
// are printed, and the exit code is 0 unless a panic escapes the
// containment layers (the CI assertion).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/fault"
	"dfdbg/internal/h264"
	"dfdbg/internal/mach"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
	"dfdbg/internal/web"
)

func main() {
	var (
		w      = flag.Int("w", 48, "frame width (multiple of 4)")
		h      = flag.Int("h", 32, "frame height (multiple of 4)")
		qp     = flag.Int("qp", 8, "quantization step")
		seed   = flag.Int64("seed", 7, "synthetic content seed")
		frames = flag.Int("frames", 1, "frames in the sequence")
		chroma = flag.Bool("chroma", false, "4:2:0 YCbCr (W,H multiples of 8)")
		pgm    = flag.String("pgm", "", "write the first decoded luma plane as a PGM file")
		obsOn  = flag.Bool("obs", false, "record observability events and print a profile + metrics")
		tl     = flag.String("timeline", "", "write a Chrome trace / Perfetto JSON timeline (implies -obs)")
		maddr  = flag.String("metrics-addr", "", "serve Prometheus metrics on this address (implies -obs)")
		haddr  = flag.String("http", "", "serve the web UI on this address during the run (implies -obs)")
		flts   = flag.String("faults", "", "fault plan: inline spec (;-separated) or a file path")
		fsd    = flag.Int64("fault-seed", 0, "arm a seeded random fault plan (0 = off)")
		wdog   = flag.String("watchdog", "", "progress watchdog threshold (default 2ms in fault mode)")
		batch  = flag.Bool("batch", false, "batch proven-SDF regions (schedule-driven execution)")
		cpupro = flag.String("cpuprofile", "", "write a pprof CPU profile of the decode")
		mempro = flag.String("memprofile", "", "write a pprof heap profile after the decode")
	)
	flag.Parse()
	p := h264.Params{W: *w, H: *h, QP: *qp, Seed: *seed, Frames: *frames, Chroma: *chroma}
	o := decodeOpts{pgm: *pgm, obs: *obsOn, timeline: *tl, metricsAddr: *maddr,
		httpAddr: *haddr, faults: *flts, faultSeed: *fsd, watchdog: *wdog, batch: *batch}
	if *cpupro != "" {
		f, err := os.Create(*cpupro)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h264dec: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "h264dec: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	err := decode(p, o, os.Stdout)
	if *mempro != "" {
		if f, ferr := os.Create(*mempro); ferr == nil {
			runtime.GC() // settle the heap so the profile shows retained objects
			if werr := pprof.WriteHeapProfile(f); werr != nil {
				fmt.Fprintf(os.Stderr, "h264dec: memprofile: %v\n", werr)
			}
			f.Close()
		} else {
			fmt.Fprintf(os.Stderr, "h264dec: %v\n", ferr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "h264dec: %v\n", err)
		os.Exit(1)
	}
}

// decodeOpts bundles the output options of one decode run.
type decodeOpts struct {
	pgm         string // PGM path for the first luma plane ("" = none)
	obs         bool   // record observability events
	timeline    string // Chrome trace JSON path ("" = none)
	metricsAddr string // Prometheus listen address ("" = none)
	httpAddr    string // web UI listen address ("" = none)
	faults      string // fault plan spec or file ("" = none)
	faultSeed   int64  // random fault plan seed (0 = none)
	watchdog    string // watchdog threshold ("" = default in fault mode)
	batch       bool   // batch proven-SDF regions
}

// faultMode reports whether this run is a chaos experiment.
func (o decodeOpts) faultMode() bool { return o.faults != "" || o.faultSeed != 0 }

func decode(p h264.Params, o decodeOpts, w io.Writer) error {
	video := h264.GenerateSequence(p)
	bits, err := h264.EncodeSequence(video, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "encoded %dx%dx%d sequence (QP=%d, chroma=%v): %d bytes, %d blocks\n",
		p.W, p.H, p.FrameCount(), p.QP, p.Chroma, len(bits), p.BlocksPerFrame()*p.FrameCount())

	k := sim.NewKernel()
	var rec *obs.Recorder
	if o.obs || o.timeline != "" || o.metricsAddr != "" || o.httpAddr != "" {
		rec = obs.NewRecorder(1 << 18)
		k.SetObserver(rec)
	}
	m := mach.New(k, mach.Config{})
	rt := pedf.NewRuntime(k, m, nil)
	app, err := h264.Build(rt, p, bits, false)
	if err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}
	if o.batch {
		n, err := pedfgraph.EnableBatch(rt, "h264")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "batched execution: %d SDF region(s) proven and armed\n", n)
	}
	var host *web.SoloHost
	if o.httpAddr != "" {
		host = web.NewSoloHost("h264dec", rec, k, rt, nil)
		url, shutdown, err := host.Serve(o.httpAddr)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(w, "web UI at %s\n", url)
	}
	if o.faultMode() {
		return chaosDecode(k, rt, host, o, w)
	}
	st, err := runKernel(k, host)
	if err != nil {
		return err
	}
	if st != sim.RunIdle {
		return fmt.Errorf("simulation ended with status %v", st)
	}
	if dl := k.Blocked(); dl != nil {
		return fmt.Errorf("decoder stalled: %v", dl)
	}
	decoded, err := app.OutputSequence()
	if err != nil {
		return err
	}
	want, err := h264.ReferenceDecodeSequence(bits, p)
	if err != nil {
		return err
	}
	mismatches, total := 0, 0
	var mae float64
	for f := range want {
		for _, pair := range [][2][]int{
			{decoded[f].Y, want[f].Y}, {decoded[f].Cb, want[f].Cb}, {decoded[f].Cr, want[f].Cr},
		} {
			for i := range pair[1] {
				if pair[0][i] != pair[1][i] {
					mismatches++
				}
				total++
			}
		}
		mae += h264.PSNRish(video[f].Y, decoded[f].Y)
	}
	mae /= float64(len(want))
	fmt.Fprintf(w, "PEDF decode finished at t=%s on %d PEs\n", k.Now(), len(m.PEs()))
	fmt.Fprintf(w, "reference comparison: %d/%d pixels differ\n", mismatches, total)
	fmt.Fprintf(w, "source fidelity: mean abs error vs original = %.2f (QP=%d)\n", mae, p.QP)
	if mismatches != 0 {
		return fmt.Errorf("PEDF decoder diverged from the reference")
	}
	if o.pgm != "" {
		if err := writePGM(o.pgm, decoded[0].Y, p.W, p.H); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", o.pgm)
	}
	if rec != nil {
		prof := obs.FoldRange(rec, uint64(k.Now()))
		prof.Dropped = rec.Dropped()
		fmt.Fprintf(w, "\nobservability: %d events recorded (%d dropped)\n%s",
			rec.Total(), rec.Dropped(), prof.TopN(10))
		if o.timeline != "" {
			if err := writeTimeline(o.timeline, rec, uint64(k.Now())); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote timeline %s (open in ui.perfetto.dev)\n", o.timeline)
		}
		if o.metricsAddr != "" {
			srv, err := rec.Metrics.Serve(o.metricsAddr)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(w, "serving metrics on %s/metrics — press Enter to exit\n", o.metricsAddr)
			fmt.Scanln()
		}
	}
	if o.httpAddr != "" && o.metricsAddr == "" {
		fmt.Fprintf(w, "web UI still serving — press Enter to exit\n")
		fmt.Scanln()
	}
	return nil
}

// runKernel runs the kernel to completion. With a web host attached it
// runs in 1ms simulated-time slices, releasing the host between slices
// so browser queries interleave with the decode instead of blocking
// until it finishes.
func runKernel(k *sim.Kernel, host *web.SoloHost) (sim.RunStatus, error) {
	if host == nil {
		return k.Run()
	}
	const slice = sim.Duration(1_000_000)
	for {
		host.Lock()
		st, err := k.RunUntil(k.Now() + slice)
		host.Unlock()
		if st != sim.RunHorizon {
			return st, err
		}
	}
}

// chaosDecode runs the decoder as a chaos experiment: arm the fault
// plan and the watchdog, run, and report what happened — contained
// crashes, watchdog stalls with their wait-for explanation, and the
// deterministic fault trace. The exit code stays 0; only a panic that
// escapes the containment layers crashes the process, which is exactly
// what the CI chaos-smoke job asserts against.
func chaosDecode(k *sim.Kernel, rt *pedf.Runtime, host *web.SoloHost, o decodeOpts, w io.Writer) error {
	switch {
	case o.faults != "":
		text := o.faults
		if b, err := os.ReadFile(o.faults); err == nil {
			text = string(b)
		}
		plan, err := fault.ParsePlan(text)
		if err != nil {
			return err
		}
		k.SetFaults(fault.NewInjector(plan))
		fmt.Fprintf(w, "fault plan:\n%s", plan)
	default:
		plan := fault.Generate(o.faultSeed, rt.FaultTargets())
		k.SetFaults(fault.NewInjector(plan))
		fmt.Fprintf(w, "fault plan (seed %d):\n%s", o.faultSeed, plan)
	}
	wd := o.watchdog
	if wd == "" {
		wd = "2ms"
	}
	ns, err := fault.ParseDurationNS(wd)
	if err != nil {
		return err
	}
	k.SetWatchdog(sim.Duration(ns))
	k.SetWallBudget(30 * time.Second)

	st, err := runKernel(k, host)
	switch {
	case err != nil:
		if rep, ok := pedf.CrashReport(err); ok {
			fmt.Fprintf(w, "%s\n", rep)
		} else {
			fmt.Fprintf(w, "contained crash: %v\n", err)
		}
	case st == sim.RunStalled:
		if r := k.LastStall(); r != nil {
			fmt.Fprintf(w, "%s\n", r)
		}
	default:
		fmt.Fprintf(w, "chaos decode finished at t=%s (status %s)\n", k.Now(), st)
	}
	fmt.Fprintf(w, "watchdog stalls: %d\n", k.WatchdogStalls())
	if in := k.Faults(); in != nil {
		lines := in.TraceStrings()
		fmt.Fprintf(w, "fault trace (%d fired, %d pending):\n", len(lines), len(in.Pending()))
		for _, l := range lines {
			fmt.Fprintf(w, "  %s\n", l)
		}
	}
	if o.httpAddr != "" {
		fmt.Fprintf(w, "web UI still serving — press Enter to exit\n")
		fmt.Scanln()
	}
	return nil
}

func writeTimeline(path string, rec *obs.Recorder, total uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	linkName := func(id int32) string { return fmt.Sprintf("link#%d", id) }
	if err := obs.WriteChromeTrace(f, rec.Snapshot(), total, linkName); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writePGM(path string, pix []int, w, h int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, "P5\n%d %d\n255\n", w, h); err != nil {
		return err
	}
	buf := make([]byte, len(pix))
	for i, v := range pix {
		buf[i] = byte(v)
	}
	_, err = f.Write(buf)
	return err
}
