package stack_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"dfdbg/internal/stack"
)

// traceViews are the commands that read the obs ring: the trace dump,
// link balance and actor activity, and the simulated-time profile.
var traceViews = []string{
	"trace", "trace 0", "trace 7", "trace balance", "trace activity",
	"profile 5", "profile folded",
}

// traceViewSteps are the points of a session at which the views are
// pinned: before the first stop, at a work catchpoint's stop, after a
// token injection, and after a batched run to the end.
var traceViewSteps = [][]string{
	nil,
	{"filter pipe catch work", "continue"},
	{"inject ipf::pipe_in 5"},
	{"delete catch 1", "continue"},
}

// TestTraceViewsGolden pins the output of every ring view over the
// served and REPL worlds at four points of a session. A line of the
// full dump (`trace 0`) is pinned by count and digest only: a finished
// world retains tens of thousands of events.
func TestTraceViewsGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		name string
		r    stack.Recipe
	}{{"served", servedRecipe}, {"solo", soloRecipe}} {
		st, err := c.r.Build()
		if err != nil {
			t.Fatal(err)
		}
		run := func(line string) {
			res := st.CLI.Dispatch(line)
			out := res.Output
			if line == "trace 0" {
				out = digestLines(out)
			}
			fmt.Fprintf(&b, "%s> %s\n%s", c.name, line, out)
			if res.Err != nil {
				fmt.Fprintf(&b, "error: %v\n", res.Err)
			}
		}
		for _, step := range traceViewSteps {
			for _, line := range step {
				run(line)
			}
			for _, line := range traceViews {
				run(line)
			}
		}
		st.Shutdown()
	}
	checkGolden(t, filepath.Join("testdata", "trace_views.golden"), b.String())
}

// digestLines summarizes a long output by its line count, first and
// last lines and an FNV-1a digest of the whole.
func digestLines(out string) string {
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	h := uint64(14695981039346656037)
	for i := 0; i < len(out); i++ {
		h ^= uint64(out[i])
		h *= 1099511628211
	}
	return fmt.Sprintf("[%d lines, fnv1a %016x]\nfirst: %s\nlast: %s\n",
		len(lines), h, lines[0], lines[len(lines)-1])
}
