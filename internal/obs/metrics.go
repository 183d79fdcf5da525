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

// metric is one registered entry.
type metric struct {
	name   string
	help   string
	typ    MetricType
	labels string // rendered `{k="v",...}` or ""

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // func-backed counter/gauge
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

// Registry holds metrics in registration order (deterministic
// rendering). Registration is not hot-path: instrumented layers obtain
// handles once and update them via atomics.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byKey   map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
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

func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := m.name + m.labels
	if old, ok := r.byKey[key]; ok {
		return old
	}
	r.byKey[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers (or returns the existing) counter with the given
// name and alternating label key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	m := r.register(&metric{
		name: name, help: help, typ: TypeCounter,
		labels: renderLabels(labels), counter: &Counter{},
	})
	return m.counter
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	m := r.register(&metric{
		name: name, help: help, typ: TypeGauge,
		labels: renderLabels(labels), gauge: &Gauge{},
	})
	return m.gauge
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the instrumented layer keeps its own counters and
// pays nothing on the hot path.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(&metric{
		name: name, help: help, typ: TypeCounter,
		labels: renderLabels(labels), fn: fn,
	})
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(&metric{
		name: name, help: help, typ: TypeGauge,
		labels: renderLabels(labels), fn: fn,
	})
}

// Histogram registers (or returns the existing) fixed-bucket histogram.
// bounds are ascending upper bounds; a +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	m := r.register(&metric{
		name: name, help: help, typ: TypeHistogram,
		labels: renderLabels(labels), hist: h,
	})
	return m.hist
}

func formatVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
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

// Snapshot returns every registered metric's current value in
// registration order. Function-backed metrics are read at call time, so
// a snapshot taken while a simulation runs is best-effort, exactly like
// the text expositions.
func (r *Registry) Snapshot() []MetricValue {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	out := make([]MetricValue, 0, len(metrics))
	for _, m := range metrics {
		mv := MetricValue{Name: m.name, Labels: m.labels, Type: m.typ.String()}
		if m.typ == TypeHistogram {
			mv.Sum = m.hist.Sum()
			mv.Count = m.hist.Count()
		} else {
			mv.Value = m.value()
		}
		out = append(out, mv)
	}
	return out
}

// WriteText renders a human-readable table.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range metrics {
		if m.typ == TypeHistogram {
			h := m.hist
			fmt.Fprintf(w, "%-44s count=%d sum=%s\n",
				m.name+m.labels, h.Count(), formatVal(h.Sum()))
			cum := uint64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(w, "  le=%-12s %d\n", formatVal(b), cum)
			}
			continue
		}
		fmt.Fprintf(w, "%-44s %s\n", m.name+m.labels, formatVal(m.value()))
	}
}

// WritePrometheus renders the Prometheus text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	typed := make(map[string]bool)
	for _, m := range metrics {
		if !typed[m.name] {
			typed[m.name] = true
			if m.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ)
		}
		if m.typ == TypeHistogram {
			h := m.hist
			base := strings.TrimSuffix(m.labels, "}")
			cum := uint64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(w, "%s%s %d\n", m.name+"_bucket", bucketLabels(base, formatVal(b)), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(w, "%s%s %d\n", m.name+"_bucket", bucketLabels(base, "+Inf"), cum)
			fmt.Fprintf(w, "%s%s %s\n", m.name+"_sum", m.labels, formatVal(h.Sum()))
			fmt.Fprintf(w, "%s%s %d\n", m.name+"_count", m.labels, h.Count())
			continue
		}
		fmt.Fprintf(w, "%s %s\n", m.name+m.labels, formatVal(m.value()))
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
