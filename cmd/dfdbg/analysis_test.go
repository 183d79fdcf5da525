package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"path/filepath"

	"dfdbg/internal/analysis"
	"dfdbg/internal/analysis/absint"
	"dfdbg/internal/analysis/pedfgraph"
	"dfdbg/internal/h264"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/stack"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildH264 elaborates one h264 decoder variant for analysis tests.
func buildH264(t testing.TB, bug h264.Bug) *pedf.Runtime {
	t.Helper()
	st, err := stack.Recipe{Params: h264.Params{W: 16, H: 16, QP: 8, Seed: 7}, Bug: bug, Lazy: true}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return st.RT
}

// The H.264 case study must produce an issue-free static report: no
// errors or warnings, only classifier notes (FC008 for the dynamic
// front end, DF008 for any proven-static region). The pre-run hook only
// prints warnings and errors, keeping the session banner stable.
func TestH264StaticAnalysisClean(t *testing.T) {
	for _, bug := range []h264.Bug{h264.BugNone, h264.BugSwapMBInputs, h264.BugRateStall, h264.BugBadDC} {
		rt := buildH264(t, bug)
		rep, err := pedfgraph.CheckRuntime(rt, "h264")
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors() != 0 || rep.Warnings() != 0 {
			var sb strings.Builder
			rep.WriteText(&sb)
			t.Errorf("bug=%v: unexpected diagnostics:\n%s", bug, sb.String())
		}
		for _, d := range rep.Diags {
			if d.Sev >= analysis.Warning {
				continue
			}
			if d.Code == "FC008" && d.Detail == "" {
				t.Errorf("bug=%v: FC008 without an explanation trace: %v", bug, d)
			}
		}
	}
}

// Satellite: the classifier's verdict for every h264 actor, committed as
// a golden. The bitstream parser (bh) must be dynamic — its token rates
// depend on the parsed header — with the explaining instruction in the
// trace; every dynamic verdict must carry a non-empty trace.
func TestH264ClassifierGolden(t *testing.T) {
	rt := buildH264(t, h264.BugNone)
	rep, _, err := pedfgraph.Analyze(rt, "h264")
	if err != nil {
		t.Fatal(err)
	}
	var bh *absint.Class
	for _, c := range rep.Classes {
		if c.Actor == "bh" {
			bh = c
		}
		if c.Verdict == absint.VerdictDynamic && len(c.Trace) == 0 {
			t.Errorf("%s: dynamic verdict without a trace", c.Actor)
		}
	}
	if bh == nil {
		t.Fatal("no class for the bitstream parser bh")
	}
	if bh.Verdict != absint.VerdictDynamic {
		t.Fatalf("bh = %+v, want dynamic", bh)
	}
	if !strings.Contains(strings.Join(bh.Trace, "\n"), "bh.c:") {
		t.Fatalf("bh trace must name the instruction in bh.c that broke staticness: %v", bh.Trace)
	}

	var b bytes.Buffer
	for _, c := range rep.Classes {
		fmt.Fprintf(&b, "%s: %s", c.Actor, c.Verdict)
		if c.Verdict != absint.VerdictDynamic {
			fmt.Fprintf(&b, " period=%d universal=%v", c.Period, c.Universal)
			for _, p := range c.Ports {
				fmt.Fprintf(&b, " %s=%v", p.Port, p.Pattern)
			}
		}
		b.WriteString("\n")
		for _, ln := range c.Trace {
			fmt.Fprintf(&b, "    %s\n", ln)
		}
	}
	b.WriteString("== report ==\n")
	rep.WriteText(&b)
	golden := "../../testdata/analysis/h264_classes.golden"
	if *update {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("golden mismatch for %s:\n--- got ---\n%s\n--- want ---\n%s", golden, b.Bytes(), want)
	}
}

// TestH264ClassifierSoundnessDifferential is the soundness gate on the
// real application: run the full decoder to completion with the event
// recorder on, reconstruct every filter firing's actual token rates from
// the KFireBegin/KFireEnd brackets and the KPop/KPush events inside
// them, and check each observed firing against the classifier's verdict
// — an SDF/CSDF actor must exhibit exactly the inferred pattern phase on
// every port, every firing.
func TestH264ClassifierSoundnessDifferential(t *testing.T) {
	st, err := stack.Recipe{Params: h264.Params{W: 16, H: 16, QP: 8, Seed: 7}, Ring: 1 << 17, Lazy: true}.Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := st.Rec
	classes := pedfgraph.ClassifyActors(st.RT)
	if _, err := st.K.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("event ring overflowed (%d dropped); enlarge the recorder", rec.Dropped())
	}

	// Reconstruct per-firing observed rates in event order (the ring is
	// single-writer, so order is execution order).
	type fkey struct {
		actor  string
		firing int64
	}
	pops := map[fkey]map[string]int{}
	pushes := map[fkey]map[string]int{}
	active := map[string]int64{}
	var done []fkey
	count := func(m map[fkey]map[string]int, k fkey, port string) {
		if m[k] == nil {
			m[k] = map[string]int{}
		}
		m[k][port]++
	}
	for _, ev := range rec.Snapshot() {
		switch ev.Kind {
		case obs.KFireBegin:
			active[ev.Actor] = ev.Arg
		case obs.KFireEnd:
			done = append(done, fkey{ev.Actor, ev.Arg})
			delete(active, ev.Actor)
		case obs.KPop:
			if n, ok := active[ev.Actor]; ok {
				count(pops, fkey{ev.Actor, n}, ev.Port)
			}
		case obs.KPush:
			if n, ok := active[ev.Actor]; ok {
				count(pushes, fkey{ev.Actor, n}, ev.Port)
			}
		}
	}
	if len(done) == 0 {
		t.Fatal("no completed firings observed")
	}

	checked := 0
	for _, fk := range done {
		c := classes[fk.actor]
		if c == nil || !c.Static() {
			continue
		}
		checked++
		verify := func(dir string, got map[string]int) {
			for _, pr := range c.Ports {
				if pr.Dir != dir {
					continue
				}
				want := pr.Pattern[int(fk.firing)%len(pr.Pattern)]
				if got[pr.Port] != want {
					t.Fatalf("%s firing %d: observed %s rate %d on %s, classifier inferred %d (pattern %v)",
						fk.actor, fk.firing, dir, got[pr.Port], pr.Port, want, pr.Pattern)
				}
			}
			// No tokens on ports the classifier calls untouched.
			for port, n := range got {
				if len(c.RateOf(port)) == 0 && n != 0 {
					t.Fatalf("%s firing %d: observed %d token(s) on %s, classifier inferred none",
						fk.actor, fk.firing, n, port)
				}
			}
		}
		verify("in", pops[fk])
		verify("out", pushes[fk])
	}
	if checked == 0 {
		t.Fatal("no firing of a statically classified actor was checked")
	}
	// The dynamic front end must actually have fired too, or the run is
	// not representative.
	bhFired := false
	for _, fk := range done {
		if fk.actor == "bh" {
			bhFired = true
		}
	}
	if !bhFired {
		t.Fatal("bitstream parser bh never fired")
	}
}

// The acceptance scenario: `dfdbg analyze` on the deadlock example must
// report the under-initialized cycle with its stable code and a DOT
// rendering, and exit non-zero.
func TestAnalyzeDeadlockExample(t *testing.T) {
	var out, errw strings.Builder
	code := analyzeMain([]string{"../../examples/deadlock/adl/deadlock.adl"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errw.String())
	}
	for _, frag := range []string{"DF003", "digraph", `"acc" -> "inc"`, "initial tokens"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("report missing %q:\n%s", frag, out.String())
		}
	}
}

func TestAnalyzeJSONOutput(t *testing.T) {
	var out, errw strings.Builder
	code := analyzeMain([]string{"-json", "../../examples/deadlock/adl/deadlock.adl"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errw.String())
	}
	var rep struct {
		Diagnostics []struct {
			Code     string `json:"code"`
			Severity string `json:"severity"`
		} `json:"diagnostics"`
		Errors int `json:"errors"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if rep.Errors != 1 || len(rep.Diagnostics) == 0 || rep.Diagnostics[0].Code != "DF003" {
		t.Errorf("unexpected report: %+v", rep)
	}
}

func TestAnalyzeCleanDesign(t *testing.T) {
	var out, errw strings.Builder
	code := analyzeMain([]string{"../../testdata/amodule/amodule.adl"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, errw.String())
	}
	if !strings.Contains(out.String(), "no issues found") {
		t.Errorf("clean report expected:\n%s", out.String())
	}
}

// TestAnalyzeGate is the CI analyze gate: `dfdbg analyze -json` runs
// over every ADL design in the repository (examples/ and testdata/),
// over the generated H.264 decoder design, and the full pipeline runs
// over every decoder bug variant. Designs may only carry the error
// codes pinned in the allowlist — any new error fails the gate.
func TestAnalyzeGate(t *testing.T) {
	allowed := map[string]map[string]bool{
		"deadlock.adl": {"DF003": true}, // the intentionally deadlocked example
		"badpush.adl":  {"FC005": true}, // the intentionally io-misusing example
	}
	var adls []string
	for _, root := range []string{"../../examples", "../../testdata"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".adl") {
				adls = append(adls, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(adls) == 0 {
		t.Fatal("no ADL designs found")
	}
	for _, adl := range adls {
		var out, errw strings.Builder
		code := analyzeMain([]string{"-json", adl}, &out, &errw)
		var rep struct {
			Diagnostics []struct {
				Code     string `json:"code"`
				Severity string `json:"severity"`
			} `json:"diagnostics"`
			Errors int `json:"errors"`
		}
		if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
			t.Fatalf("%s: invalid JSON: %v (stderr: %s)", adl, err, errw.String())
		}
		allow := allowed[filepath.Base(adl)]
		for _, d := range rep.Diagnostics {
			if d.Severity == "error" && !allow[d.Code] {
				t.Errorf("%s: new analysis error %s", adl, d.Code)
			}
		}
		wantCode := 0
		if rep.Errors > 0 {
			wantCode = 1
		}
		if code != wantCode {
			t.Errorf("%s: exit = %d with %d error(s)", adl, code, rep.Errors)
		}
	}

	// Every decoder bug variant must stay error- and warning-free under
	// the full pipeline (the injected defects are runtime defects, not
	// design defects — the analyzer must not cry wolf). The generated
	// decoder design uses the h264 package's type registry, so it goes
	// through the elaborated-runtime path rather than the ADL CLI; the
	// JSON encoding is exercised the same way.
	for _, bug := range []h264.Bug{h264.BugNone, h264.BugSwapMBInputs, h264.BugRateStall, h264.BugBadDC} {
		rep, _, err := pedfgraph.Analyze(buildH264(t, bug), "h264")
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors() != 0 || rep.Warnings() != 0 {
			var sb strings.Builder
			rep.WriteText(&sb)
			t.Errorf("bug=%v: analyze gate tripped:\n%s", bug, sb.String())
		}
		if len(rep.Regions) == 0 || len(rep.Classes) == 0 {
			t.Errorf("bug=%v: pipeline produced no regions/classes", bug)
		}
		var jb bytes.Buffer
		if err := rep.WriteJSON(&jb); err != nil {
			t.Fatalf("bug=%v: JSON encoding failed: %v", bug, err)
		}
		var chk struct {
			Classes []struct {
				Actor   string `json:"actor"`
				Verdict string `json:"verdict"`
			} `json:"classes"`
			Regions []struct {
				Actors []string `json:"actors"`
			} `json:"regions"`
		}
		if err := json.Unmarshal(jb.Bytes(), &chk); err != nil {
			t.Fatalf("bug=%v: invalid JSON: %v", bug, err)
		}
		if len(chk.Classes) == 0 || len(chk.Regions) == 0 {
			t.Errorf("bug=%v: JSON report lacks classes/regions:\n%s", bug, jb.String())
		}
	}
}

func TestAnalyzeUsageErrors(t *testing.T) {
	var out, errw strings.Builder
	if code := analyzeMain(nil, &out, &errw); code != 2 {
		t.Errorf("no-args exit = %d, want 2", code)
	}
	if code := analyzeMain([]string{"/nonexistent.adl"}, &out, &errw); code != 1 {
		t.Errorf("missing-file exit = %d, want 1", code)
	}
}
