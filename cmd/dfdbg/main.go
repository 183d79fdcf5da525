// Command dfdbg is the interactive dataflow debugger of the paper: a
// GDB-style command line (see `help` inside the session) driving the
// H.264 case-study decoder on the simulated P2012 platform.
//
// Usage:
//
//	dfdbg [-w 32] [-h 32] [-qp 8] [-seed 7] [-bug none|swapped-mb-inputs|rate-stall|bad-dc]
//	      [-faults <spec|file>] [-fault-seed N] [-watchdog 2ms]
//
// Commands arrive on stdin; start with `help`. Typical session:
//
//	(gdb) filter pipe catch work
//	(gdb) continue
//	(gdb) graph
//	(gdb) filter red configure splitter
//	(gdb) filter pipe info last_token
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/cli"
	"dfdbg/internal/fault"
	"dfdbg/internal/h264"
	"dfdbg/internal/mind"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
	"dfdbg/internal/stack"
	"dfdbg/internal/web"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		os.Exit(analyzeMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		w    = flag.Int("w", 32, "frame width (multiple of 4)")
		h    = flag.Int("h", 32, "frame height (multiple of 4)")
		qp   = flag.Int("qp", 8, "quantization step")
		seed = flag.Int64("seed", 7, "synthetic content seed")
		bug  = flag.String("bug", "none", "inject a defect: none, swapped-mb-inputs, rate-stall, bad-dc")
		flts = flag.String("faults", "", "fault plan: inline spec (;-separated) or a file path")
		fsd  = flag.Int64("fault-seed", 0, "arm a seeded random fault plan (0 = off)")
		wdog = flag.String("watchdog", "", "progress watchdog threshold, e.g. 2ms (empty = off)")
	)
	flag.Parse()
	p := h264.Params{W: *w, H: *h, QP: *qp, Seed: *seed}
	fo := faultOpts{spec: *flts, seed: *fsd, watchdog: *wdog}
	if err := run(p, *bug, fo, os.Stdin, os.Stdout); err != nil {
		// A fault-plan panic contained by the runtime exits with the
		// structured crash report, never a raw Go panic.
		if rep, ok := pedf.CrashReport(err); ok {
			fmt.Fprintf(os.Stderr, "dfdbg: %s\n", rep)
		} else {
			fmt.Fprintf(os.Stderr, "dfdbg: %v\n", err)
		}
		os.Exit(1)
	}
}

// analyzeMain implements `dfdbg analyze [-top NAME] [-src DIR] [-json]
// design.adl`: load the ADL design, run the full static analysis pass
// (graph + filterc analyzers), print the report, and exit non-zero when
// it contains errors.
func analyzeMain(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		top    = fs.String("top", "", "top-level composite to analyze (default: first composite)")
		srcDir = fs.String("src", "", "directory of filterc source files (default: ADL directory)")
		asJSON = fs.Bool("json", false, "emit the report as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(errw, "usage: dfdbg analyze [-top NAME] [-src DIR] [-json] design.adl")
		return 2
	}
	app, err := mind.LoadApp(fs.Arg(0), *top, *srcDir)
	if err != nil {
		fmt.Fprintf(errw, "dfdbg: %v\n", err)
		return 1
	}
	rep, err := pedfgraph.CheckRuntime(app.Runtime, app.File.Name)
	if err != nil {
		fmt.Fprintf(errw, "dfdbg: %v\n", err)
		return 1
	}
	if *asJSON {
		if err := rep.WriteJSON(out); err != nil {
			fmt.Fprintf(errw, "dfdbg: %v\n", err)
			return 1
		}
	} else {
		rep.WriteText(out)
	}
	if rep.HasErrors() {
		return 1
	}
	return 0
}

// faultOpts bundles the fault-injection flags of one session.
type faultOpts struct {
	spec     string // inline plan or file path ("" = none)
	seed     int64  // random-plan seed (0 = none)
	watchdog string // watchdog threshold ("" = off)
}

// recipe resolves the command line into the REPL world, once per
// process: the requested bug, the static pre-flight (warnings surface
// on out before the first dispatch; `dfdbg analyze` is the gating
// form), the batched engine (every region demotes to the per-token
// path the moment anything that can stop the run is armed), the host's
// files (`fault load`, `timeline export`) and the fault flags. A fault
// spec naming an existing file is read here, anything else parses as
// an inline plan, and an explicit spec wins over a seed. Checkpoint
// rebuilds replay the recipe and never look at the flags or the file
// again.
func recipe(p h264.Params, bugName string, fo faultOpts, out io.Writer) (stack.Recipe, error) {
	bug, err := h264.ParseBug(bugName)
	r := stack.Recipe{Params: p, Bug: bug, Ring: 4096, Payloads: true, Batch: stack.BatchOn, PreRun: out, HostFiles: true}
	switch {
	case err != nil:
		return r, err
	case fo.spec != "":
		text := fo.spec
		if b, err := os.ReadFile(fo.spec); err == nil {
			text = string(b)
		}
		plan, err := fault.ParsePlan(text)
		if err != nil {
			return r, err
		}
		r.Faults = &plan
		fmt.Fprintf(out, "armed %d fault(s)\n", len(plan.Faults))
	case fo.seed != 0:
		r.FaultSeed = fo.seed
	}
	if fo.watchdog != "" {
		ns, err := fault.ParseDurationNS(fo.watchdog)
		if err != nil {
			return r, err
		}
		r.Watchdog = sim.Duration(ns)
	}
	return r, nil
}

func run(p h264.Params, bugName string, fo faultOpts, in io.Reader, out io.Writer) error {
	r, err := recipe(p, bugName, fo, out)
	if err != nil {
		return err
	}
	// The session journals state-mutating command lines and rebuilds the
	// whole world from the same recipe (with replay verification) on
	// restore and reverse execution (DESIGN §13).
	sess := stack.NewSession(r)
	if err := sess.Boot(nil); err != nil {
		return err
	}
	defer sess.Close()
	cur := sess.Live()
	if r.FaultSeed != 0 {
		fmt.Fprintf(out, "fault plan (seed %d):\n%s", r.FaultSeed, fault.Generate(r.FaultSeed, cur.RT.FaultTargets()))
	}
	fmt.Fprintf(out, "dfdbg: dataflow debugger on the H.264 case study "+
		"(%dx%d, %d macroblocks, bug=%s)\n", p.W, p.H, p.NumBlocks(), r.Bug)
	fmt.Fprintf(out, "%d actors and %d links reconstructed; type `help` for commands\n",
		len(cur.D.Actors()), len(cur.D.Links()))

	// The web UI shares the live world through a solo host; its mutex is
	// the dispatch guard, so browser queries serialize against commands
	// and a restore rebinds the host before anything else runs.
	host := web.NewSoloHost("dfdbg", cur.Rec, cur.K, cur.RT, cur.Full)
	var stopWeb []func()
	defer func() {
		for _, stop := range stopWeb {
			stop()
		}
	}()
	startWeb := func(addr string) (string, error) {
		url, stop, err := host.Serve(addr)
		if err == nil {
			stopWeb = append(stopWeb, stop)
		}
		return url, err
	}
	cur.CLI.StartWeb = startWeb
	rebind := func(ns *stack.Stack) {
		ns.CLI.StartWeb = startWeb
		host.Rebind(ns.Rec, ns.K, ns.RT, ns.Full)
	}

	// dispatch runs one command line under the host lock and adopts the
	// world a restore-class command staged. All mutation — REPL and web
	// exec alike — funnels through here, so the swap is race-free by
	// construction.
	dispatch := func(line string) cli.Result {
		host.Lock()
		defer host.Unlock()
		res := sess.Exec(line)
		sess.Adopt(rebind)
		return res
	}
	host.SetExec(func(line string) (web.ExecResult, error) {
		res := dispatch(line)
		er := web.ExecResult{Output: res.Output, Quit: res.Quit}
		if res.Err != nil {
			er.Err = res.Err.Error()
		}
		return er, nil
	})

	// The birth checkpoint: reverse execution and `restore` always have
	// a floor to return to. Best effort — a world whose state cannot be
	// captured still debugs, it just cannot rewind.
	if _, err := sess.Checkpoint("boot"); err != nil {
		fmt.Fprintf(out, "checkpointing disabled: %v\n", err)
	}

	sc := bufio.NewScanner(in)
	for {
		fmt.Fprintf(out, "(gdb) ")
		if !sc.Scan() {
			fmt.Fprintf(out, "\n")
			return nil
		}
		res := dispatch(sc.Text())
		io.WriteString(out, res.Output)
		if res.Err != nil {
			fmt.Fprintf(out, "error: %v\n", res.Err)
		}
		if res.Quit {
			return nil
		}
	}
}
