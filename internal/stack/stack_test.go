package stack_test

import (
	"bytes"
	"testing"

	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/filterc"
	"dfdbg/internal/h264"
	"dfdbg/internal/stack"
)

var params = h264.Params{W: 16, H: 16, QP: 8, Seed: 7}

// servedRecipe is the world a dfserve session boots.
var servedRecipe = stack.Recipe{Params: params, Ring: 1 << 16, Trace: true, Batch: stack.BatchHeld}

// Session create, restore, reverse-step and migration import all
// rebuild a world from its recipe. After the first build in a process,
// a rebuild must reuse the interned programs, their compiled code and
// the memoized classes: nothing is compiled or classified again, so
// nothing accumulates per build.
func TestRebuildCompilesAndClassifiesNothing(t *testing.T) {
	build := func() {
		t.Helper()
		st, err := servedRecipe.Build()
		if err != nil {
			t.Fatal(err)
		}
		st.Shutdown()
	}
	build()
	compiles, runs := filterc.CompileTotal(), pedfgraph.ClassifyTotal()
	hits := pedfgraph.MemoHits()
	for i := 0; i < 20; i++ {
		build()
	}
	if d := filterc.CompileTotal() - compiles; d != 0 {
		t.Errorf("20 rebuilds compiled %d programs, want 0", d)
	}
	if d := pedfgraph.ClassifyTotal() - runs; d != 0 {
		t.Errorf("20 rebuilds ran %d classifications, want 0", d)
	}
	if pedfgraph.MemoHits() == hits {
		t.Error("rebuilds never consulted the classification memo")
	}
}

// The process-wide counters behind that reuse are published on every
// world's metrics registry.
func TestWorldPublishesReuseCounters(t *testing.T) {
	st, err := servedRecipe.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Shutdown()
	want := map[string]bool{
		"filterc_compile_total": true, "filterc_cache_hits_total": true,
		"analysis_classify_total": true, "analysis_classify_memo_hits_total": true,
	}
	for _, m := range st.Rec.Metrics.Snapshot() {
		delete(want, m.Name)
	}
	if len(want) != 0 {
		t.Errorf("registry lacks %v", want)
	}
}

// Two worlds decoding at once on their own goroutines share interned
// programs, compiled code and memoized classes. Under -race this covers
// that sharing; either way both must end in the same state.
func TestConcurrentWorldsSharePrograms(t *testing.T) {
	r := stack.Recipe{Params: params, Ring: 1 << 12, Batch: stack.BatchOn}
	states := make(chan []byte, 2)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, err := r.Build()
			if err != nil {
				errs <- err
				return
			}
			defer st.Shutdown()
			if _, err := st.K.Run(); err != nil {
				errs <- err
				return
			}
			b, err := st.CaptureState()
			if err != nil {
				errs <- err
				return
			}
			states <- b
		}()
	}
	var got [][]byte
	for len(got) < 2 {
		select {
		case err := <-errs:
			t.Fatal(err)
		case b := <-states:
			got = append(got, b)
		}
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Error("concurrent worlds built from one recipe ended in different states")
	}
}
