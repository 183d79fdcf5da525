package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	g := reg.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %d", g.Value())
	}
	h := reg.Histogram("h_ns", "a histogram", []float64{10, 100})
	for _, v := range []float64{5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 555 {
		t.Errorf("hist count=%d sum=%g", h.Count(), h.Sum())
	}
}

func TestRegistryDedup(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("dup_total", "x", "k", "v")
	b := reg.Counter("dup_total", "x", "k", "v")
	if a != b {
		t.Error("same name+labels produced two counters")
	}
	c := reg.Counter("dup_total", "x", "k", "w")
	if a == c {
		t.Error("different labels shared a counter")
	}
}

func TestWriteText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("events_total", "events").Add(12)
	reg.GaugeFunc("now_ns", "clock", func() float64 { return 42 })
	h := reg.Histogram("lat_ns", "latency", []float64{10, 100})
	h.Observe(50)
	var b strings.Builder
	reg.WriteText(&b)
	out := b.String()
	for _, want := range []string{"events_total", "12", "now_ns", "42", "lat_ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ev_total", "events", "actor", "fa").Add(3)
	h := reg.Histogram("lat_ns", "latency", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP ev_total events",
		"# TYPE ev_total counter",
		`ev_total{actor="fa"} 3`,
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{le="10"} 1`,
		`lat_ns_bucket{le="100"} 2`,
		`lat_ns_bucket{le="+Inf"} 2`,
		"lat_ns_sum 55",
		"lat_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestServeMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total", "x").Add(9)
	srv, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "served_total 9") {
		t.Errorf("served body:\n%s", body)
	}
}

// TestServeCloseDeterministic is the regression test for the old Serve
// shape, where the http.Serve goroutine swallowed its error and Close
// returned before the loop exited: Close must wait for the serve loop,
// after which the port is immediately rebindable and no error leaks
// from the close-initiated shutdown.
func TestServeCloseDeterministic(t *testing.T) {
	reg := NewRegistry()
	srv, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	if _, err := http.Get("http://" + addr + "/metrics"); err != nil {
		t.Fatal(err)
	}
	if srv.Err() != nil {
		t.Fatalf("live server reports error: %v", srv.Err())
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-srv.Done():
	default:
		t.Fatal("Close returned before the serve loop exited")
	}
	if srv.Err() != nil {
		t.Fatalf("close-initiated shutdown leaks error: %v", srv.Err())
	}
	// The loop is down, so the exact port is free again right away.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port not released after Close: %v", err)
	}
	ln.Close()
	// Double close stays safe and error-free.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestServeSurfacesLoopDeath kills the listener behind the server's
// back (not via Close) and checks the failure is observable.
func TestServeSurfacesLoopDeath(t *testing.T) {
	reg := NewRegistry()
	srv, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.ln.Close() // simulate the listener dying out from under the loop
	<-srv.Done()
	// The loop exited on net.ErrClosed, which Err filters as a normal
	// shutdown — but Done() firing without Close is the caller's signal
	// that the endpoint is gone.
	select {
	case <-srv.Done():
	default:
		t.Fatal("Done not closed after loop death")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after loop death: %v", err)
	}
}

func TestSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "a counter", "k", "v").Add(3)
	reg.Gauge("g", "a gauge").Set(-7)
	reg.GaugeFunc("fn_g", "func gauge", func() float64 { return 2.5 })
	h := reg.Histogram("h_ns", "a histogram", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)

	snap := reg.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d entries, want 4", len(snap))
	}
	want := []MetricValue{
		{Name: "c_total", Labels: `{k="v"}`, Type: "counter", Value: 3},
		{Name: "g", Type: "gauge", Value: -7},
		{Name: "fn_g", Type: "gauge", Value: 2.5},
		{Name: "h_ns", Type: "histogram", Sum: 55, Count: 2},
	}
	for i, w := range want {
		if snap[i] != w {
			t.Errorf("snapshot[%d] = %+v, want %+v", i, snap[i], w)
		}
	}
}

// renderLabels must render exactly what fmt's `%s=%q` rendering did,
// since label strings are part of every metric's identity and of the
// exposition output.
func TestRenderLabelsMatchesFmt(t *testing.T) {
	viaFmt := func(labels []string) string {
		if len(labels) == 0 {
			return ""
		}
		var b strings.Builder
		b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
		}
		b.WriteByte('}')
		return b.String()
	}
	values := []string{"", "mb", `quo"te`, `back\slash`, "tab\tnew\nline", "ünïcode", "\x00\x7f", "bad\xffutf8",
		" ", strings.Repeat("long", 60)}
	cases := [][]string{nil, {"k"}, {"actor", "mb"}, {"a", "1", "b", "2", "odd"}}
	for i, v := range values {
		cases = append(cases, []string{"k", v}, []string{"x" + v, v, "y", values[(i+1)%len(values)]})
	}
	for _, labels := range cases {
		if got, want := renderLabels(labels), viaFmt(labels); got != want {
			t.Errorf("renderLabels(%q) = %s, want %s", labels, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { renderLabels([]string{"actor", "filter.mb", "pe", "3"}) }); allocs > 1 {
		t.Errorf("renderLabels allocates %.0f times, want 1", allocs)
	}
}

// A family exposes exactly what registering each row's series one by
// one does, reading its labels and values at exposition.
func TestFamilyMatchesPerSeries(t *testing.T) {
	type row struct {
		name string
		a, b uint64
	}
	rows := []row{{"x", 1, 2}, {`q"uote`, 3, 4}}
	read := func(i, col int) float64 {
		if col == 0 {
			return float64(rows[i].a)
		}
		return float64(rows[i].b)
	}
	fam := NewRegistry()
	fam.Counter("before_total", "first").Add(1)
	f := Family{
		Series: []Series{
			{Name: "fam_a_total", Help: "a", Type: TypeCounter},
			{Name: "fam_b", Help: "b", Type: TypeGauge},
		},
		Label: "row", Rows: len(rows),
		Value: func(i int) string { return rows[i].name },
		Read:  read,
	}
	fam.RegisterFamily(f)
	fam.RegisterFamily(f) // deduplicated
	fam.RegisterFamily(Family{Series: []Series{{Name: "fam_u", Help: "u", Type: TypeGauge}}, Rows: 1,
		Read: func(_, _ int) float64 { return 9 }})

	// Labels and values are read at exposition, not at registration.
	rows[0].name, rows[1].b = "y", 40
	perSeries := NewRegistry()
	perSeries.Counter("before_total", "first").Add(1)
	for i := range rows {
		i := i
		perSeries.CounterFunc("fam_a_total", "a", func() float64 { return read(i, 0) }, "row", rows[i].name)
		perSeries.GaugeFunc("fam_b", "b", func() float64 { return read(i, 1) }, "row", rows[i].name)
	}
	perSeries.GaugeFunc("fam_u", "u", func() float64 { return 9 })

	for _, render := range []func(*Registry) string{
		func(r *Registry) string { var b strings.Builder; r.WriteText(&b); return b.String() },
		func(r *Registry) string { var b strings.Builder; r.WritePrometheus(&b); return b.String() },
		func(r *Registry) string { return fmt.Sprint(r.Snapshot()) },
	} {
		if got, want := render(fam), render(perSeries); got != want {
			t.Errorf("family exposition:\n%s\nwant:\n%s", got, want)
		}
	}
}
