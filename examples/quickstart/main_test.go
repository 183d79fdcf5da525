package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfdbg/internal/obs"
)

// TestTimelineMatchesGolden pins the quickstart's Perfetto export
// byte-for-byte: the simulation is deterministic and the exporter emits
// only simulated times, so the file must not drift. Regenerate with
//
//	go run ./examples/quickstart -timeline examples/quickstart/testdata/timeline.golden.json
func TestTimelineMatchesGolden(t *testing.T) {
	dir := t.TempDir()
	tl := filepath.Join(dir, "timeline.json")
	if _, _, err := run(&strings.Builder{}, tl, ""); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(tl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/timeline.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("timeline drifted from golden file (regenerate if intentional)\ngot %d bytes, want %d",
			len(got), len(want))
	}
}

// TestTimelineChromeSchema validates the export against the Chrome
// trace-event schema: a JSON object with traceEvents, every entry with
// a known phase, a pid, a name, and non-negative times.
func TestTimelineChromeSchema(t *testing.T) {
	data, err := os.ReadFile("testdata/timeline.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string         `json:"ph"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("golden timeline is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	phases := map[string]int{}
	for i, ev := range doc.TraceEvents {
		phases[ev.Ph]++
		if ev.Ph != "M" && ev.Ph != "X" && ev.Ph != "C" {
			t.Errorf("event %d: unknown phase %q", i, ev.Ph)
		}
		if ev.Pid == nil || ev.Name == "" {
			t.Errorf("event %d: missing pid or name", i)
		}
		switch ev.Ph {
		case "X":
			if ev.Ts == nil || ev.Dur == nil || *ev.Ts < 0 || *ev.Dur < 0 {
				t.Errorf("event %d: bad slice times", i)
			}
			if ev.Cat != "dfobs" {
				t.Errorf("event %d: cat = %q", i, ev.Cat)
			}
		case "C":
			if ev.Ts == nil || len(ev.Args) == 0 {
				t.Errorf("event %d: counter without ts/args", i)
			}
		case "M":
			if ev.Args["name"] == "" {
				t.Errorf("event %d: metadata without name arg", i)
			}
		}
	}
	// All three phases must be present: track metadata, slices, counters.
	for _, ph := range []string{"M", "X", "C"} {
		if phases[ph] == 0 {
			t.Errorf("no %q events in the timeline", ph)
		}
	}
}

// TestProfileTotalsSumToSimulatedTime checks the acceptance invariant:
// for every actor the profiler's busy+blocked+idle equals the kernel's
// final simulated time.
func TestProfileTotalsSumToSimulatedTime(t *testing.T) {
	rec, now, err := run(&strings.Builder{}, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; enlarge the recorder", rec.Dropped())
	}
	prof := obs.FoldRange(rec, uint64(now))
	if len(prof.Actors) == 0 {
		t.Fatal("no actors in profile")
	}
	for _, a := range prof.Actors {
		if a.Busy+a.Blocked+a.Idle != uint64(now) {
			t.Errorf("%s: busy %d + blocked %d + idle %d != total %d",
				a.Name, a.Busy, a.Blocked, a.Idle, uint64(now))
		}
	}
	for _, pe := range prof.PEs {
		if pe.Busy+pe.Idle != uint64(now) {
			t.Errorf("pe%d: busy %d + idle %d != total %d", pe.ID, pe.Busy, pe.Idle, uint64(now))
		}
	}
}

// TestMetricsDump sanity-checks the metrics text artifact.
func TestMetricsDump(t *testing.T) {
	dir := t.TempDir()
	mp := filepath.Join(dir, "metrics.txt")
	if _, _, err := run(&strings.Builder{}, "", mp); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{
		"sim_dispatches_total",
		"pedf_actor_firings_total{actor=\"double\"}",
		"pedf_link_pushes_total",
		"core_data_events_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, out)
		}
	}
}
