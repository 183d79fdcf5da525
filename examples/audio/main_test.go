package main

import (
	"reflect"
	"testing"

	"dfdbg/internal/analysis/absint"
	"dfdbg/internal/analysis/pedfgraph"
)

func TestMultiratePipelineMatchesReference(t *testing.T) {
	got, want, err := RunPipeline(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 || len(want) != 16 {
		t.Fatalf("lengths: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d: %d != %d", i, got[i], want[i])
		}
	}
	// The signal must be non-trivial (not all zeros).
	nonzero := false
	for _, v := range got {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("output is all zeros")
	}
}

// Classes the analyzer serves from its process-wide memo must equal a
// fresh classification of every actor.
func TestClassMemoMatchesFreshClassify(t *testing.T) {
	p, err := buildPipeline(4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.rt.K.Shutdown()
	pedfgraph.ClassifyActors(p.rt)
	runs := pedfgraph.ClassifyTotal()
	warm := pedfgraph.ClassifyActors(p.rt)
	if pedfgraph.ClassifyTotal() != runs {
		t.Error("second classification was not served from the memo")
	}
	for _, f := range p.rt.Actors() {
		if fresh := absint.Classify(f.Prog, pedfgraph.AbsContextFor(f)); !reflect.DeepEqual(warm[f.Name], fresh) {
			t.Errorf("%s: memoized class %+v, want fresh %+v", f.Name, warm[f.Name], fresh)
		}
	}
}
