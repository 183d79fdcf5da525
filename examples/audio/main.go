// Audio: a multirate audio-processing pipeline on PEDF — the platform's
// other target domain ("high-definition audio and video processing").
//
//	env → fir (3-tap FIR) → gain → down (2:1 decimator) → env
//
// The decimator consumes two samples per firing, so the controller uses
// PEDF's predicated scheduling to fire the upstream filters twice per
// step and the decimator once — a rate-differentiated schedule that a
// plain lockstep controller could not express. The output is verified
// against a plain Go reference implementation.
//
//	go run ./examples/audio
package main

import (
	"fmt"
	"log"

	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// firSrc: y[n] = (x[n] + 2*x[n-1] + x[n-2]) / 4, state in private data.
const firSrc = `void work() {
	i32 x = pedf.io.i[0];
	i32 y = (x + 2 * pedf.data.z1 + pedf.data.z2) / 4;
	pedf.data.z2 = pedf.data.z1;
	pedf.data.z1 = x;
	pedf.io.o[0] = y;
}`

// gainSrc: fixed-point gain with saturation.
const gainSrc = `void work() {
	i32 x = pedf.io.i[0];
	i32 y = (x * pedf.attribute.gain_q8) >> 8;
	pedf.io.o[0] = clamp(y, 0 - 32768, 32767);
}`

// downSrc: 2:1 decimation by averaging each sample pair.
const downSrc = `void work() {
	i32 a = pedf.io.i[0];
	i32 b = pedf.io.i[1];
	pedf.io.o[0] = (a + b) / 2;
}`

// ctlSrc fires fir and gain twice per step, down once — the multirate
// schedule (one decimated sample out per step). Start/sync requests are
// level-triggered, so re-firing an actor requires a WAIT_FOR_ACTOR_SYNC
// barrier between the rounds (two sub-rounds per step).
const ctlSrc = `u32 work() {
	ACTOR_FIRE("fir");
	ACTOR_FIRE("gain");
	WAIT_FOR_ACTOR_SYNC();
	ACTOR_FIRE("fir");
	ACTOR_FIRE("gain");
	ACTOR_FIRE("down");
	WAIT_FOR_ACTOR_SYNC();
	if (STEP_INDEX() + 1 >= pedf.attribute.steps) return 0;
	return 1;
}`

// reference computes the same chain in plain Go.
func reference(samples []int64, gainQ8 int64) []int64 {
	var z1, z2 int64
	var filtered []int64
	for _, x := range samples {
		y := (x + 2*z1 + z2) / 4
		z2, z1 = z1, x
		y = (y * gainQ8) >> 8
		if y > 32767 {
			y = 32767
		}
		if y < -32768 {
			y = -32768
		}
		filtered = append(filtered, y)
	}
	var out []int64
	for i := 0; i+1 < len(filtered); i += 2 {
		out = append(out, (filtered[i]+filtered[i+1])/2)
	}
	return out
}

const gainQ8 = 384 // the gain stage's attribute: 1.5 in Q8

// pipeline is the application for n output samples, started but not
// yet run.
type pipeline struct {
	rt      *pedf.Runtime
	low     *lowdbg.Debugger
	col     *pedf.Collector
	samples []int64
}

// buildPipeline builds and starts the pipeline for n output samples,
// with the dataflow debugger attached.
func buildPipeline(nOut int) (*pipeline, error) {
	i32 := filterc.Scalar(filterc.I32)
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	core.Attach(low)
	m := mach.New(k, mach.Config{Clusters: 1, PEsPerCluster: 8})
	rt := pedf.NewRuntime(k, m, low)

	mod, err := rt.NewModule("audio", nil)
	if err != nil {
		return nil, err
	}
	in, _ := mod.AddPort("in", pedf.In, i32)
	out, _ := mod.AddPort("out", pedf.Out, i32)
	fir, err := rt.NewFilter(mod, pedf.FilterSpec{
		Name: "fir", Source: firSrc,
		Data:   []pedf.VarSpec{{Name: "z1", Type: i32}, {Name: "z2", Type: i32}},
		Inputs: []pedf.PortSpec{{Name: "i", Type: i32}}, Outputs: []pedf.PortSpec{{Name: "o", Type: i32}},
	})
	if err != nil {
		return nil, err
	}
	gain, err := rt.NewFilter(mod, pedf.FilterSpec{
		Name: "gain", Source: gainSrc,
		Attrs:  []pedf.VarSpec{{Name: "gain_q8", Type: i32, Init: gainQ8}},
		Inputs: []pedf.PortSpec{{Name: "i", Type: i32}}, Outputs: []pedf.PortSpec{{Name: "o", Type: i32}},
	})
	if err != nil {
		return nil, err
	}
	down, err := rt.NewFilter(mod, pedf.FilterSpec{
		Name: "down", Source: downSrc,
		Inputs: []pedf.PortSpec{{Name: "i", Type: i32}}, Outputs: []pedf.PortSpec{{Name: "o", Type: i32}},
	})
	if err != nil {
		return nil, err
	}
	if _, err := rt.SetController(mod, pedf.ControllerSpec{
		Source: ctlSrc,
		Attrs:  []pedf.VarSpec{{Name: "steps", Type: i32, Init: int64(nOut)}},
	}); err != nil {
		return nil, err
	}
	for _, b := range [][2]*pedf.Port{
		{in, fir.In("i")}, {fir.Out("o"), gain.In("i")},
		{gain.Out("o"), down.In("i")}, {down.Out("o"), out},
	} {
		if err := rt.Bind(b[0], b[1]); err != nil {
			return nil, err
		}
	}
	// A synthetic "audio" signal: a rough integer sine-ish wave.
	nIn := nOut * 2
	samples := make([]int64, nIn)
	var feed []filterc.Value
	for n := 0; n < nIn; n++ {
		tri := int64(n % 64)
		if tri > 32 {
			tri = 64 - tri
		}
		s := (tri - 16) * 900
		samples[n] = s
		feed = append(feed, filterc.Int(filterc.I32, s))
	}
	if err := rt.FeedInput(in, feed); err != nil {
		return nil, err
	}
	col, err := rt.CollectOutput(out)
	if err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}
	return &pipeline{rt: rt, low: low, col: col, samples: samples}, nil
}

// RunPipeline builds and runs the pipeline for n output samples,
// returning (pedf result, reference result).
func RunPipeline(nOut int) ([]int64, []int64, error) {
	p, err := buildPipeline(nOut)
	if err != nil {
		return nil, nil, err
	}
	ev := p.low.Continue()
	if ev.Deadlock != nil {
		return nil, nil, fmt.Errorf("stalled: %v", ev.Deadlock)
	}
	if ev.Err != nil {
		return nil, nil, ev.Err
	}
	var got []int64
	for _, v := range p.col.Values {
		got = append(got, v.I)
	}
	return got, reference(p.samples, gainQ8), nil
}

func main() {
	got, want, err := RunPipeline(24)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decimated output (%d samples): %v\n", len(got), got)
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("sample %d: PEDF %d != reference %d", i, got[i], want[i])
		}
	}
	fmt.Println("PEDF multirate pipeline matches the Go reference sample-for-sample.")
}
