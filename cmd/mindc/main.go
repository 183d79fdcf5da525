// Command mindc is the MIND architecture compiler front-end: it parses
// an ADL file (the paper's @Module/@Filter composite/primitive syntax),
// resolves filter sources from a directory, elaborates the architecture
// into a PEDF runtime, and emits the Figure 2-style Graphviz DOT graph.
//
// Usage:
//
//	mindc -top AModule [-src dir] [-nocheck] design.adl
//
// Filter `source xyz.c;` clauses resolve against -src (default: the
// directory containing the ADL file).
//
// Before emitting the graph, mindc runs the static analysis pass
// (dataflow graph checks plus per-filter filterc checks) and refuses to
// compile a design with analysis errors; -nocheck skips the pass.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/mind"
)

func main() {
	var (
		top     = flag.String("top", "", "top-level composite to elaborate (default: first composite)")
		srcDir  = flag.String("src", "", "directory of filterc source files (default: ADL directory)")
		nocheck = flag.Bool("nocheck", false, "skip the static analysis pass")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mindc [-top NAME] [-src DIR] [-nocheck] design.adl")
		os.Exit(2)
	}
	dot, err := compile(flag.Arg(0), *top, *srcDir, *nocheck, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mindc: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(dot)
}

// compile loads the design, optionally runs the analysis gate (report on
// diagW, error return when the design has analysis errors), and renders
// the architecture DOT.
func compile(adlPath, top, srcDir string, nocheck bool, diagW io.Writer) (string, error) {
	app, err := mind.LoadApp(adlPath, top, srcDir)
	if err != nil {
		return "", err
	}
	rt := app.Runtime
	regions := ""
	if !nocheck {
		rep, _, err := pedfgraph.Analyze(rt, app.File.Name)
		if err != nil {
			return "", err
		}
		if len(rep.Diags) > 0 {
			rep.WriteText(diagW)
		}
		if rep.HasErrors() {
			return "", fmt.Errorf("design has %d analysis error(s) (use -nocheck to compile anyway)",
				rep.Errors())
		}
		if n := len(rep.Regions); n > 0 {
			regions = fmt.Sprintf(", %d static region(s)", n)
		}
	}
	fmt.Fprintf(diagW, "elaborated composite %s: %d module(s), %d actor(s), %d link(s)%s\n",
		app.Module.Name, len(rt.Modules()), len(rt.Actors()), len(rt.Links()), regions)
	return mind.GraphDOT(rt), nil
}
