package stack_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfdbg/internal/obs"
	"dfdbg/internal/stack"
)

var update = flag.Bool("update", false, "rewrite golden files")

// maskedValue says whether a series' reading depends on something
// other than the world: host wall-clock time (the breakpoint-handler
// timings) or the process's history (the interned-program and analysis
// memo counters, which count every world the process built).
func maskedValue(name string) bool {
	switch name {
	case "dbg_bp_host_ns_total", "dbg_bp_handler_ns_sum", "dbg_bp_handler_ns_bucket",
		"filterc_compile_total", "filterc_cache_hits_total":
		return true
	}
	return strings.HasPrefix(name, "analysis_")
}

// maskLast replaces a line's last field with "*".
func maskLast(line string) string {
	return line[:strings.LastIndexByte(line, ' ')+1] + "*"
}

// maskText masks WriteText output: a histogram's header carries its sum
// and the indented lines after it its buckets.
func maskText(text string) string {
	lines := strings.Split(text, "\n")
	cur := ""
	for i, l := range lines {
		if l == "" {
			continue
		}
		if strings.HasPrefix(l, " ") {
			if cur == "dbg_bp_handler_ns" {
				lines[i] = maskLast(l)
			}
			continue
		}
		cur = l[:strings.IndexAny(l, "{ ")]
		switch {
		case cur == "dbg_bp_handler_ns":
			lines[i] = l[:strings.Index(l, "sum=")] + "sum=*"
		case maskedValue(cur):
			lines[i] = maskLast(l)
		}
	}
	return strings.Join(lines, "\n")
}

// maskPrometheus masks WritePrometheus output series by series.
func maskPrometheus(text string) string {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		if l == "" || l[0] == '#' {
			continue
		}
		if maskedValue(l[:strings.IndexAny(l, "{ ")]) {
			lines[i] = maskLast(l)
		}
	}
	return strings.Join(lines, "\n")
}

// snapshotJSON renders a snapshot one series per line, masked values
// set to -1.
func snapshotJSON(t *testing.T, snap []obs.MetricValue) string {
	var b strings.Builder
	for _, m := range snap {
		switch {
		case m.Name == "dbg_bp_handler_ns":
			m.Sum = -1
		case maskedValue(m.Name):
			m.Value = -1
		}
		line, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestExpositionGolden pins everything a decoded world's registry
// exposes, in all three forms: the text table, the Prometheus
// exposition and the JSON snapshot the wire protocol serves. Series
// order, names, labels, HELP/TYPE lines and readings are all part of
// it; only host-timed and process-history readings are masked.
func TestExpositionGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		r    stack.Recipe
	}{{"served", servedRecipe}, {"solo", soloRecipe}} {
		t.Run(c.name, func(t *testing.T) {
			st, err := c.r.Build()
			if err != nil {
				t.Fatal(err)
			}
			defer st.Shutdown()
			if _, err := st.K.Run(); err != nil {
				t.Fatal(err)
			}
			reg := st.Rec.Metrics
			var text, prom bytes.Buffer
			reg.WriteText(&text)
			reg.WritePrometheus(&prom)
			got := "== text ==\n" + maskText(text.String()) +
				"== prometheus ==\n" + maskPrometheus(prom.String()) +
				"== snapshot ==\n" + snapshotJSON(t, reg.Snapshot())
			path := filepath.Join("testdata", "exposition_"+c.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("exposition differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("exposition differs from %s: %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}
