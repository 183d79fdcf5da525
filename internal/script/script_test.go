package script

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"dfdbg/internal/h264"
)

var testParams = h264.Params{W: 32, H: 32, QP: 8, Seed: 7}

func TestMisBindingSessions(t *testing.T) {
	df, err := Run(testParams, h264.BugSwapMBInputs, Dataflow)
	if err != nil {
		t.Fatal(err)
	}
	if !df.Localized {
		t.Fatalf("dataflow session failed: %v\n%s", df, strings.Join(df.Evidence, "\n"))
	}
	if !strings.Contains(df.Culprit, "mis-bound links") {
		t.Errorf("culprit = %q", df.Culprit)
	}
	ll, err := Run(testParams, h264.BugSwapMBInputs, LowLevel)
	if err != nil {
		t.Fatal(err)
	}
	if !ll.Localized {
		t.Fatalf("lowlevel session failed: %v\n%s", ll, strings.Join(ll.Evidence, "\n"))
	}
	if df.Ops >= ll.Ops {
		t.Errorf("dataflow ops %d should beat lowlevel ops %d for an architecture bug",
			df.Ops, ll.Ops)
	}
	if df.Ops > 5 {
		t.Errorf("dataflow localization took %d ops, expected a handful", df.Ops)
	}
}

func TestRateStallSessions(t *testing.T) {
	df, err := Run(testParams, h264.BugRateStall, Dataflow)
	if err != nil {
		t.Fatal(err)
	}
	if !df.Localized {
		t.Fatalf("dataflow session failed: %v\n%s", df, strings.Join(df.Evidence, "\n"))
	}
	if !strings.Contains(df.Culprit, "congested") {
		t.Errorf("culprit = %q", df.Culprit)
	}
	ll, err := Run(testParams, h264.BugRateStall, LowLevel)
	if err != nil {
		t.Fatal(err)
	}
	if !ll.Localized {
		t.Fatalf("lowlevel session failed: %v\n%s", ll, strings.Join(ll.Evidence, "\n"))
	}
	if df.Ops >= ll.Ops {
		t.Errorf("dataflow ops %d should beat lowlevel ops %d for a token-rate bug",
			df.Ops, ll.Ops)
	}
}

func TestBadDCSessions(t *testing.T) {
	df, err := Run(testParams, h264.BugBadDC, Dataflow)
	if err != nil {
		t.Fatal(err)
	}
	if !df.Localized {
		t.Fatalf("dataflow session failed: %v\n%s", df, strings.Join(df.Evidence, "\n"))
	}
	if !strings.Contains(df.Culprit, "DC rounding") {
		t.Errorf("culprit = %q", df.Culprit)
	}
	ll, err := Run(testParams, h264.BugBadDC, LowLevel)
	if err != nil {
		t.Fatal(err)
	}
	if !ll.Localized {
		t.Fatalf("lowlevel session failed: %v\n%s", ll, strings.Join(ll.Evidence, "\n"))
	}
	// The paper expects roughly comparable effort for purely algorithmic
	// bugs; the dataflow debugger should still not be worse.
	if df.Ops > ll.Ops {
		t.Errorf("dataflow ops %d worse than lowlevel %d for an algorithmic bug", df.Ops, ll.Ops)
	}
}

func TestFirstBadBlockFindsDefect(t *testing.T) {
	bad, err := firstBadBlock(testParams, h264.BugBadDC)
	if err != nil {
		t.Fatal(err)
	}
	if bad < 0 {
		t.Fatal("BadDC produced no observable error")
	}
	// A clean build has no bad block.
	good, err := firstBadBlock(testParams, h264.BugNone)
	if err != nil {
		t.Fatal(err)
	}
	if good != -1 {
		t.Errorf("clean decoder has bad block %d", good)
	}
}

func TestRunAll(t *testing.T) {
	results, err := RunAll(testParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d, want 6", len(results))
	}
	for _, r := range results {
		if !r.Localized {
			t.Errorf("session %v/%v failed to localize", r.Bug, r.Strategy)
		}
		if r.Ops == 0 || len(r.Evidence) != r.Ops {
			t.Errorf("session %v/%v: ops=%d evidence=%d", r.Bug, r.Strategy, r.Ops, len(r.Evidence))
		}
		if !strings.Contains(r.String(), string(r.Strategy)) {
			t.Errorf("String() = %q", r.String())
		}
	}
}

func TestUnknownCombination(t *testing.T) {
	if _, err := Run(testParams, h264.BugNone, Dataflow); err == nil {
		t.Error("BugNone session accepted")
	}
}

// Run shuts down every world a session builds (the session's own, a
// restarted one, the reference run of the observable error): after
// several runs the goroutine count is back at its baseline.
func TestRunShutsDownItsWorlds(t *testing.T) {
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7}
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		for _, bug := range []h264.Bug{h264.BugSwapMBInputs, h264.BugRateStall, h264.BugBadDC} {
			for _, strat := range []Strategy{Dataflow, LowLevel} {
				if _, err := Run(p, bug, strat); err != nil {
					t.Fatalf("%v/%v: %v", bug, strat, err)
				}
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines %d after 18 runs, baseline %d: a run left a world up", n, base)
	}
}
