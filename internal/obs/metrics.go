package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType distinguishes exposition rendering.
type MetricType int

const (
	// TypeCounter is a monotonically increasing count.
	TypeCounter MetricType = iota
	// TypeGauge is a value that can go up and down.
	TypeGauge
	// TypeHistogram is a fixed-bucket distribution.
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is an atomic monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic settable metric.
type Gauge struct{ v atomic.Int64 }

// Set stores a value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Observe is lock-free.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; implicit +Inf last
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

// Observe records one sample in the first bucket whose bound is >= v.
// The bucket lists are short, so a linear scan beats a binary search.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && !(h.bounds[i] >= v) {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Series names one function-backed series of a Family.
type Series struct {
	Name string
	Help string
	Type MetricType // TypeCounter or TypeGauge
}

// Family is a table of function-backed series registered as one entry:
// Rows rows, each holding one series per element of Series. Row i's
// series carry the label Label="Value(i)", or no label when Label is "",
// and series j of row i reads Read(i, j). Labels and readings are both
// taken at exposition time from the layer's own state, so registering
// a family of any size renders nothing and costs one entry.
type Family struct {
	Series []Series
	Label  string
	Rows   int
	Value  func(row int) string
	Read   func(row, col int) float64
}

// metric is one registered entry: a single series, or a family.
type metric struct {
	name   string
	help   string
	typ    MetricType
	labels string // rendered `{k="v",...}` or ""

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // func-backed counter/gauge

	fam Family // an entry with fam.Series set is a family
}

func (m *metric) value() float64 {
	switch {
	case m.fn != nil:
		return m.fn()
	case m.counter != nil:
		return float64(m.counter.Value())
	case m.gauge != nil:
		return float64(m.gauge.Value())
	default:
		return 0
	}
}

// entryKey identifies a registry entry for dedup: a series by its name
// and rendered labels, a family by its first series' name and its
// label key.
type entryKey struct {
	name   string
	labels string
	family bool
}

// Registry holds metrics in registration order (deterministic
// rendering). Registration is not hot-path: instrumented layers obtain
// handles once and update them via atomics.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byKey   map[entryKey]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[entryKey]*metric)}
}

// renderLabels formats alternating key, value pairs as `{k="v",...}`.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var buf [128]byte
	b := append(buf[:0], '{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, labels[i]...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, labels[i+1])
	}
	return string(append(b, '}'))
}

func (r *Registry) register(key entryKey, m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byKey[key]; ok {
		return old
	}
	r.byKey[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// single registers one series under its name and labels.
func (r *Registry) single(m *metric, labels []string) *metric {
	m.labels = renderLabels(labels)
	return r.register(entryKey{name: m.name, labels: m.labels}, m)
}

// Counter registers (or returns the existing) counter with the given
// name and alternating label key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	m := r.single(&metric{name: name, help: help, typ: TypeCounter, counter: &Counter{}}, labels)
	return m.counter
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	m := r.single(&metric{name: name, help: help, typ: TypeGauge, gauge: &Gauge{}}, labels)
	return m.gauge
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the instrumented layer keeps its own counters and
// pays nothing on the hot path.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.single(&metric{name: name, help: help, typ: TypeCounter, fn: fn}, labels)
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.single(&metric{name: name, help: help, typ: TypeGauge, fn: fn}, labels)
}

// RegisterFamily registers f as one entry; registering a family whose
// first series name and label key are already registered as a family
// is a no-op. Exposition expands a family row by row, each row in
// Series order: the order a loop registering every row's series one by
// one would give.
func (r *Registry) RegisterFamily(f Family) {
	if len(f.Series) == 0 {
		return
	}
	r.register(entryKey{name: f.Series[0].Name, labels: f.Label, family: true}, &metric{fam: f})
}

// Histogram registers (or returns the existing) fixed-bucket histogram.
// bounds are ascending upper bounds; a +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	m := r.single(&metric{name: name, help: help, typ: TypeHistogram, hist: h}, labels)
	return m.hist
}

func formatVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// series is one exposed series: a single registered metric or one cell
// of a family, its labels rendered and its value read.
type series struct {
	name, help string
	typ        MetricType
	labels     string
	value      float64    // counters and gauges
	hist       *Histogram // histograms
}

// expand returns every series in registration order, families row by
// row. Function-backed values are read and labels rendered now, so
// while a simulation runs the result is a best-effort snapshot.
func (r *Registry) expand() []series {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	out := make([]series, 0, len(metrics))
	for _, m := range metrics {
		f := &m.fam
		if len(f.Series) == 0 {
			out = append(out, series{name: m.name, help: m.help, typ: m.typ, labels: m.labels, value: m.value(), hist: m.hist})
			continue
		}
		for row := 0; row < f.Rows; row++ {
			labels := ""
			if f.Label != "" {
				pair := [2]string{f.Label, f.Value(row)}
				labels = renderLabels(pair[:])
			}
			for col, c := range f.Series {
				out = append(out, series{name: c.Name, help: c.Help, typ: c.Type, labels: labels, value: f.Read(row, col)})
			}
		}
	}
	return out
}

// MetricValue is one registered metric's value at snapshot time, in the
// structured form wire-protocol clients consume (histograms report
// their sample count and sum).
type MetricValue struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"` // rendered {k="v",...} or ""
	Type   string  `json:"type"`
	Value  float64 `json:"value"`
	Sum    float64 `json:"sum,omitempty"`   // histograms only
	Count  uint64  `json:"count,omitempty"` // histograms only
}

// Snapshot returns every registered series' current value in
// registration order, families expanded. Function-backed metrics are
// read at call time, so a snapshot taken while a simulation runs is
// best-effort, exactly like the text expositions.
func (r *Registry) Snapshot() []MetricValue {
	all := r.expand()
	out := make([]MetricValue, 0, len(all))
	for _, s := range all {
		mv := MetricValue{Name: s.name, Labels: s.labels, Type: s.typ.String(), Value: s.value}
		if s.hist != nil {
			mv.Sum = s.hist.Sum()
			mv.Count = s.hist.Count()
		}
		out = append(out, mv)
	}
	return out
}

// WriteText renders a human-readable table.
func (r *Registry) WriteText(w io.Writer) {
	for _, s := range r.expand() {
		if h := s.hist; h != nil {
			fmt.Fprintf(w, "%-44s count=%d sum=%s\n",
				s.name+s.labels, h.Count(), formatVal(h.Sum()))
			cum := uint64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(w, "  le=%-12s %d\n", formatVal(b), cum)
			}
			continue
		}
		fmt.Fprintf(w, "%-44s %s\n", s.name+s.labels, formatVal(s.value))
	}
}

// WritePrometheus renders the Prometheus text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) {
	typed := make(map[string]bool)
	for _, s := range r.expand() {
		if !typed[s.name] {
			typed[s.name] = true
			if s.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", s.name, s.help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.typ)
		}
		if h := s.hist; h != nil {
			base := strings.TrimSuffix(s.labels, "}")
			cum := uint64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(w, "%s%s %d\n", s.name+"_bucket", bucketLabels(base, formatVal(b)), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(w, "%s%s %d\n", s.name+"_bucket", bucketLabels(base, "+Inf"), cum)
			fmt.Fprintf(w, "%s%s %s\n", s.name+"_sum", s.labels, formatVal(h.Sum()))
			fmt.Fprintf(w, "%s%s %d\n", s.name+"_count", s.labels, h.Count())
			continue
		}
		fmt.Fprintf(w, "%s %s\n", s.name+s.labels, formatVal(s.value))
	}
}

// bucketLabels merges a metric's rendered labels with le="bound".
func bucketLabels(base, le string) string {
	if base == "" {
		return fmt.Sprintf(`{le=%q}`, le)
	}
	return fmt.Sprintf(`%s,le=%q}`, base, le)
}

// Handler returns an http.Handler serving the Prometheus exposition
// (for the optional long-run endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.WritePrometheus(w)
	})
}

// MetricsServer is a running metrics endpoint returned by
// Registry.Serve. The serve loop's error is retained rather than
// discarded: Close reports it, and Done/Err let a caller notice an
// endpoint that died early (port stolen, fd exhaustion) without
// tearing it down.
type MetricsServer struct {
	ln   net.Listener
	done chan struct{}
	err  error // serve-loop exit cause; valid once done is closed
}

// Addr returns the bound listen address.
func (s *MetricsServer) Addr() net.Addr { return s.ln.Addr() }

// Done is closed when the serve loop has exited.
func (s *MetricsServer) Done() <-chan struct{} { return s.done }

// Err returns the serve loop's exit error, nil while it still runs or
// when it ended by Close.
func (s *MetricsServer) Err() error {
	select {
	case <-s.done:
	default:
		return nil
	}
	if errors.Is(s.err, net.ErrClosed) {
		return nil
	}
	return s.err
}

// Close stops the listener and waits for the serve loop to exit, so
// shutdown is deterministic: after Close returns no handler is running.
// It returns the loop's error when it died for any reason other than
// the close itself.
func (s *MetricsServer) Close() error {
	err := s.ln.Close()
	<-s.done
	if lerr := s.Err(); lerr != nil {
		return lerr
	}
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// Serve exposes the registry at http://addr/metrics in a background
// goroutine. Function-backed metrics read simulation state, so values
// are a best-effort snapshot while the simulation runs. Close the
// returned server to stop; it also reports whether the serve loop died
// on its own.
func (r *Registry) Serve(addr string) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	s := &MetricsServer{ln: ln, done: make(chan struct{})}
	go func() {
		s.err = http.Serve(ln, mux)
		close(s.done)
	}()
	return s, nil
}
