// Package metrics is the serving tier's instrumentation: a tiny
// dependency-free Prometheus registry (this file), the daemons' opt-in
// profiling endpoints (WithProfiling, pprof.go) and FanoutQuery, the
// spectator query the repository benchmark drives (fanout.go). It
// imports nothing from the engine; the paper-figure experiments live in
// cmd/benchfig.
//
// The registry holds counters, gauges and histograms rendered in the
// text exposition format, so an sgld daemon (or any other embedder) can
// expose operational state on /metrics and be scraped by a stock
// Prometheus. Only the metric kinds the server needs are implemented —
// monotone counters and settable gauges, both float64-valued, and
// histograms over fixed power-of-two buckets — with an optional fixed
// label set per series. Series are identified by (name, sorted labels);
// Registry.Counter, Registry.Gauge and Registry.Histogram are
// get-or-create, so call sites can look series up on the hot path
// without holding their own references.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing float64 metric. The zero value is
// usable; all methods are safe for concurrent use.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1 to the counter.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v to the counter. Negative v is ignored (counters are
// monotone by definition; use a Gauge for values that can fall).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Raise lifts the counter to v if it is below it: the way to export a
// total that is kept elsewhere (an atomic inside the engine, read at
// scrape time) without a second copy to reconcile. Concurrent raises
// leave the largest value, so the series stays monotone whatever order
// scrapes finish in.
func (c *Counter) Raise(v float64) {
	for {
		old := c.bits.Load()
		if !(v > math.Float64frombits(old)) || c.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current counter value.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 metric that can move in both directions. The zero
// value is usable; all methods are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (possibly negative) to the gauge.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram buckets: bucket i counts the observations v with
// 2^(histMinExp+i-1) < v ≤ 2^(histMinExp+i), the first also every smaller
// value, and one more bucket (+Inf) those above the last bound — for
// seconds, ≈1 µs to 8 s in factors of two.
const (
	histMinExp  = -20
	histBuckets = 24
)

// Histogram counts float64 observations in fixed power-of-two buckets,
// with their sum. The zero value is usable; all methods are safe for
// concurrent use, and an observation allocates nothing.
type Histogram struct {
	counts [histBuckets + 1]atomic.Uint64 // per bucket, not cumulative; the last is +Inf
	sum    Gauge
}

// Observe records one value. NaN falls in the +Inf bucket.
func (h *Histogram) Observe(v float64) {
	i := histBuckets
	if v <= math.Ldexp(1, histMinExp) {
		i = 0
	} else if v <= math.Ldexp(1, histMinExp+histBuckets-1) {
		frac, exp := math.Frexp(v) // v = frac·2^exp, frac in [0.5, 1)
		if frac == 0.5 {
			exp-- // a power of two is its own bucket's bound
		}
		i = exp - histMinExp
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Buckets returns the cumulative count of observations at or below each
// bucket's upper bound, the last (+Inf) being the total count.
func (h *Histogram) Buckets() [histBuckets + 1]uint64 {
	var cum [histBuckets + 1]uint64
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
		cum[i] = n
	}
	return cum
}

// Sum returns the sum of the observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// series is one registered (name, labels) time series: exactly one of
// counter, gauge and hist is set.
type series struct {
	name    string
	labels  string // rendered {k="v",…} suffix, "" when unlabeled
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metric series and renders them in the Prometheus
// text exposition format. The zero value is ready to use; methods are
// safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series // keyed by name + rendered labels
	help   map[string]string  // metric name → HELP text
}

// Help registers the HELP line emitted for a metric name.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.help == nil {
		r.help = map[string]string{}
	}
	r.help[name] = text
}

// Counter returns the counter series for (name, labels), creating it on
// first use. It panics if the series already exists as another kind.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.locked(name, labels)
	if s.counter == nil {
		s.claim("counter")
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge series for (name, labels), creating it on first
// use. It panics if the series already exists as another kind.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.locked(name, labels)
	if s.gauge == nil {
		s.claim("gauge")
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram returns the histogram series for (name, labels), creating it
// on first use. It panics if the series already exists as another kind.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.locked(name, labels)
	if s.hist == nil {
		s.claim("histogram")
		s.hist = &Histogram{}
	}
	return s.hist
}

// claim panics unless s is still without a metric of any kind.
func (s *series) claim(kind string) {
	if s.kind() != "" {
		panic(fmt.Sprintf("metrics: %s%s registered as %s, asked for a %s", s.name, s.labels, s.kind(), kind))
	}
}

// kind is the exposition TYPE of s's metric, "" before it has one.
func (s *series) kind() string {
	switch {
	case s.counter != nil:
		return "counter"
	case s.gauge != nil:
		return "gauge"
	case s.hist != nil:
		return "histogram"
	}
	return ""
}

// locked returns the series for (name, labels), creating the entry if
// needed. Callers hold r.mu, and must also assign the metric value under
// the same critical section: once an entry escapes the lock its
// counter/gauge fields are immutable, which is what makes the lock-free
// reads in WritePrometheus safe.
func (r *Registry) locked(name string, labels []Label) *series {
	suffix := renderLabels(labels)
	key := name + suffix
	if r.series == nil {
		r.series = map[string]*series{}
	}
	s := r.series[key]
	if s == nil {
		s = &series{name: name, labels: suffix}
		r.series[key] = s
	}
	return s
}

// renderLabels renders a sorted {k="v",…} suffix with Prometheus escaping.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double-quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// DeleteSeries removes every series carrying the given label pair and
// returns how many were removed. Use it when the labeled entity (a
// session, a shard) is gone for good: without removal, churn through
// distinct label values grows the registry and every exposition
// without bound. Counters handed out earlier keep working; they are
// simply no longer rendered or findable, and a later get-or-create for
// the same (name, labels) starts a fresh series.
func (r *Registry) DeleteSeries(label Label) int {
	needle := renderLabels([]Label{label})
	needle = needle[1 : len(needle)-1] // k="v" without the braces
	r.mu.Lock()
	defer r.mu.Unlock()
	removed := 0
	for key, s := range r.series {
		if s.labels == "{"+needle+"}" ||
			strings.Contains(s.labels, "{"+needle+",") ||
			strings.Contains(s.labels, ","+needle+",") ||
			strings.HasSuffix(s.labels, ","+needle+"}") {
			delete(r.series, key)
			removed++
		}
	}
	return removed
}

// WritePrometheus renders every registered series in the text exposition
// format, sorted by metric name then label set, with HELP/TYPE headers
// once per metric name.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return all[i].labels < all[j].labels
	})
	prev := ""
	for _, s := range all {
		if s.name != prev {
			if h, ok := help[s.name]; ok {
				fmt.Fprintf(w, "# HELP %s %s\n", s.name, h)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.kind())
			prev = s.name
		}
		switch {
		case s.counter != nil:
			fmt.Fprintf(w, "%s%s %v\n", s.name, s.labels, s.counter.Value())
		case s.gauge != nil:
			fmt.Fprintf(w, "%s%s %v\n", s.name, s.labels, s.gauge.Value())
		case s.hist != nil:
			writeHistogram(w, s)
		}
	}
}

// writeHistogram renders a histogram series: its cumulative _bucket
// series, each labeled le with its upper bound, then _sum and _count.
func writeHistogram(w io.Writer, s *series) {
	cum := s.hist.Buckets()
	open := "{"
	if s.labels != "" {
		open = s.labels[:len(s.labels)-1] + ","
	}
	for i, n := range cum {
		le := "+Inf"
		if i < histBuckets {
			le = fmt.Sprint(math.Ldexp(1, histMinExp+i))
		}
		fmt.Fprintf(w, "%s_bucket%sle=\"%s\"} %d\n", s.name, open, le, n)
	}
	fmt.Fprintf(w, "%s_sum%s %v\n", s.name, s.labels, s.hist.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", s.name, s.labels, cum[histBuckets])
}
