package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	var r Registry
	r.Help("sgld_ticks_total", "Clock ticks advanced per session.")
	r.Counter("sgld_ticks_total", L("session", "alpha")).Add(3)
	r.Counter("sgld_ticks_total", L("session", "beta")).Inc()
	r.Gauge("sgld_worlds").Set(2)
	r.Counter("sgld_query_seconds_total", L("session", "alpha")).Add(0.25)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	want := []string{
		"# HELP sgld_ticks_total Clock ticks advanced per session.",
		"# TYPE sgld_ticks_total counter",
		`sgld_ticks_total{session="alpha"} 3`,
		`sgld_ticks_total{session="beta"} 1`,
		"# TYPE sgld_worlds gauge",
		"sgld_worlds 2",
		`sgld_query_seconds_total{session="alpha"} 0.25`,
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q\n%s", w, out)
		}
	}
	// Sorted by name: query_seconds before ticks_total before worlds.
	iq := strings.Index(out, "sgld_query_seconds_total{")
	it := strings.Index(out, "sgld_ticks_total{")
	iw := strings.Index(out, "sgld_worlds ")
	if !(iq < it && it < iw) {
		t.Errorf("series not sorted by name:\n%s", out)
	}
}

func TestCounterGaugeSemantics(t *testing.T) {
	var c Counter
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	c.Inc()
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	c.Raise(2) // below the current value: a stale total never lowers the series
	c.Raise(7)
	if got := c.Value(); got != 7 {
		t.Errorf("counter after Raise = %v, want 7", got)
	}
	var g Gauge
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %v, want 6", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	var r Registry
	a := r.Counter("x", L("s", "1"))
	b := r.Counter("x", L("s", "1"))
	if a != b {
		t.Error("same (name, labels) should return the same counter")
	}
	other := r.Counter("x", L("s", "2"))
	if a == other {
		t.Error("distinct labels should return distinct counters")
	}
	// Label order must not matter.
	p := r.Gauge("y", L("a", "1"), L("b", "2"))
	q := r.Gauge("y", L("b", "2"), L("a", "1"))
	if p != q {
		t.Error("label order should not distinguish series")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	var r Registry
	r.Counter("z")
	defer func() {
		if recover() == nil {
			t.Error("Gauge on a counter series should panic")
		}
	}()
	r.Gauge("z")
}

func TestCounterConcurrent(t *testing.T) {
	var r Registry
	c := r.Counter("conc")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("concurrent counter = %v, want 8000", got)
	}
}

// Concurrent FIRST use of the same series must yield one counter, not
// racing lazily-created orphans that lose increments (regression: the
// metric value was once created outside the registry lock).
func TestRegistryConcurrentFirstUse(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		var r Registry
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					r.Counter("first", L("s", "x")).Inc()
				}
			}()
		}
		wg.Wait()
		if got := r.Counter("first", L("s", "x")).Value(); got != 400 {
			t.Fatalf("iter %d: first-use counter = %v, want 400", iter, got)
		}
	}
}

func TestDeleteSeries(t *testing.T) {
	var r Registry
	r.Counter("ticks", L("session", "a")).Add(5)
	r.Counter("ticks", L("session", "b")).Add(7)
	r.Counter("queries", L("session", "a"), L("kind", "scan")).Inc()
	r.Gauge("worlds").Set(2)

	if got := r.DeleteSeries(L("session", "a")); got != 2 {
		t.Errorf("DeleteSeries removed %d series, want 2", got)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if strings.Contains(out, `session="a"`) {
		t.Errorf("deleted session still exposed:\n%s", out)
	}
	for _, keep := range []string{`ticks{session="b"} 7`, "worlds 2"} {
		if !strings.Contains(out, keep) {
			t.Errorf("unrelated series lost: missing %q:\n%s", keep, out)
		}
	}
	// Recreating the series starts fresh (a counter reset, as scrapers
	// expect for a reborn entity).
	if v := r.Counter("ticks", L("session", "a")).Value(); v != 0 {
		t.Errorf("recreated series = %v, want 0", v)
	}
	if got := r.DeleteSeries(L("session", "zzz")); got != 0 {
		t.Errorf("deleting absent label removed %d series", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	var r Registry
	r.Counter("esc", L("v", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if want := `esc{v="a\"b\\c\nd"} 1`; !strings.Contains(b.String(), want) {
		t.Errorf("escaped label missing %q in:\n%s", want, b.String())
	}
}

// TestHistogramExposition: a histogram renders one cumulative _bucket
// series per power-of-two bound, le last among its labels, then _sum and
// _count — the count being the +Inf bucket — and each value lands in the
// first bucket whose bound it does not exceed.
func TestHistogramExposition(t *testing.T) {
	var r Registry
	h := r.Histogram("tick_seconds", L("session", "a"))
	for _, v := range []float64{0, 1e-9, 0.25, 0.3, 0.5, 8, 9} {
		h.Observe(v)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, w := range []string{
		"# TYPE tick_seconds histogram",
		`tick_seconds_bucket{session="a",le="9.5367431640625e-07"} 2`,
		`tick_seconds_bucket{session="a",le="0.125"} 2`,
		`tick_seconds_bucket{session="a",le="0.25"} 3`,
		`tick_seconds_bucket{session="a",le="0.5"} 5`,
		`tick_seconds_bucket{session="a",le="8"} 6`,
		`tick_seconds_bucket{session="a",le="+Inf"} 7`,
		`tick_seconds_sum{session="a"} 18.050000001`,
		`tick_seconds_count{session="a"} 7`,
	} {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q\n%s", w, out)
		}
	}
	cum := h.cumulative()
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("buckets not cumulative: %v", cum)
		}
	}
	r.Histogram("plain").Observe(1)
	b.Reset()
	r.WritePrometheus(&b)
	if want := `plain_bucket{le="1"} 1`; !strings.Contains(b.String(), want) {
		t.Errorf("unlabeled histogram missing %q:\n%s", want, b.String())
	}
	if got := r.DeleteSeries(L("session", "a")); got != 1 {
		t.Errorf("DeleteSeries removed %d series, want the histogram", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Counter on a histogram series should panic")
		}
	}()
	r.Counter("plain")
}
