package pedfgraph

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"dfdbg/internal/analysis"
	"dfdbg/internal/mind"
)

var update = flag.Bool("update", false, "rewrite golden files")

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("golden mismatch for %s\n-- got --\n%s-- want --\n%s", path, got, want)
	}
}

// The examples/deadlock design: an under-initialized feedback loop the
// analyzer must report as DF003, cycle rendered in DOT.
func TestDeadlockADLGolden(t *testing.T) {
	app, err := mind.LoadApp("../../../examples/deadlock/adl/deadlock.adl", "", "")
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := Analyze(app.Runtime, app.File.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasErrors() {
		t.Fatalf("expected DF003 error, got %d diagnostics", len(rep.Diags))
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	compareGolden(t, "../../../testdata/analysis/graphs/deadlock_adl.golden", buf.Bytes())
}

// The known-good amodule design must be clean: all ports bound or
// external, rates balanced, no cycles.
func TestAModuleRuntimeClean(t *testing.T) {
	app, err := mind.LoadApp("../../../testdata/amodule/amodule.adl", "", "")
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := Analyze(app.Runtime, app.File.Name)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 || rep.Warnings() != 0 {
		var buf bytes.Buffer
		rep.WriteText(&buf)
		t.Errorf("unexpected diagnostics:\n%s", buf.String())
	}
	// The classifier must prove the whole design static: one region
	// containing both filter instances, with the trivial [1 1] vector.
	if len(rep.Regions) != 1 {
		t.Fatalf("regions = %+v, want exactly one", rep.Regions)
	}
	r := rep.Regions[0]
	if !r.Consistent || len(r.Actors) != 2 || r.RepOf("filter_1") != 1 || r.RepOf("filter_2") != 1 {
		t.Errorf("region = %+v, want both filters at 1 repetition", r)
	}
	if len(r.Bounds) != 1 || r.Bounds[0].Bound != 1 {
		t.Errorf("bounds = %+v, want a single proven bound of 1", r.Bounds)
	}
}

// FromRuntime must mark module-aliased actor ports External (exempt from
// DF001) and carry the classes' known static rates on actor ports.
func TestFromRuntimeShapes(t *testing.T) {
	app, err := mind.LoadApp("../../../testdata/amodule/amodule.adl", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Runtime.Elaborate(false); err != nil {
		t.Fatal(err)
	}
	g := FromRuntime(app.Runtime, "amodule", ClassifyActors(app.Runtime))
	var f1 *analysis.ActorNode
	for _, a := range g.Actors {
		if a.Name == "filter_1" {
			f1 = a
		}
	}
	if f1 == nil {
		t.Fatal("filter_1 not in graph")
	}
	byName := map[string]*analysis.PortInfo{}
	for _, p := range append(append([]*analysis.PortInfo{}, f1.Ins...), f1.Outs...) {
		byName[p.Name] = p
	}
	if p := byName["an_input"]; p == nil || !p.External || p.Rate != 1 {
		t.Errorf("an_input = %+v, want external with rate 1", p)
	}
	if p := byName["an_output"]; p == nil || p.External || p.Link == nil || p.Rate != 1 {
		t.Errorf("an_output = %+v, want linked with rate 1", p)
	}
}
