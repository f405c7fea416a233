package server

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// metricValue returns the value of the series `name{session="s"}` in a
// /metrics page, and whether it is there.
func metricValue(page, name, session string) (float64, bool) {
	prefix := name + `{session="` + session + `"} `
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// TestTickWorkMetricsObservedEqualsUnobserved: the last tick's work counts
// are gauges per session on /metrics, and reading them perturbs nothing —
// a world scraped after every tick checkpoints to the same bytes as its
// twin never scraped.
func TestTickWorkMetricsObservedEqualsUnobserved(t *testing.T) {
	ts, _ := newTestServer(t)
	spec := func(r *CreateRequest) { r.Units, r.Density, r.Seed = 400, 0.04, 13 }
	create(t, ts.URL, "scraped", spec)
	create(t, ts.URL, "quiet", spec)
	var probes, steps float64
	for tick := 0; tick < 24; tick++ {
		for _, name := range []string{"scraped", "quiet"} {
			if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/"+name+"/step", StepRequest{Ticks: 1}, nil); code != http.StatusOK {
				t.Fatalf("step %s: %d", name, code)
			}
		}
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		page, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, g := range tickWorkGauges {
			if _, ok := metricValue(string(page), g.name, "scraped"); !ok {
				t.Fatalf("tick %d: /metrics has no %s for the session", tick, g.name)
			}
		}
		v, _ := metricValue(string(page), "sgld_tick_bound_steps_per_probe", "scraped")
		steps += v
		if v > 0 {
			probes++
		}
	}
	if probes == 0 || steps/probes > 8 {
		t.Errorf("bound-search comparisons per range probe: %v over %v ticks with probes; want a few a probe", steps, probes)
	}
	if a, b := fetchCheckpoint(t, ts.URL, "scraped"), fetchCheckpoint(t, ts.URL, "quiet"); !bytes.Equal(a, b) {
		t.Error("scraping /metrics every tick changed the world's checkpoint bytes")
	}
}

// TestTickSecondsObservedEqualsUnobserved: every tick the server drives
// is timed into the sgld_tick_seconds{session} histogram — its _count is
// the ticks run, its buckets cumulative up to +Inf, which equals _count —
// and timing and scraping perturb nothing: a world scraped after every
// step checkpoints to the same bytes as its twin never scraped. Deleting
// the session deletes the series.
func TestTickSecondsObservedEqualsUnobserved(t *testing.T) {
	ts, _ := newTestServer(t)
	spec := func(r *CreateRequest) { r.Units, r.Density, r.Seed = 300, 0.04, 17 }
	create(t, ts.URL, "scraped", spec)
	create(t, ts.URL, "quiet", spec)
	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		page, _ := io.ReadAll(resp.Body)
		return string(page)
	}
	ran := 0
	for _, ticks := range []int{1, 1, 3, 1, 5, 1, 2} {
		for _, name := range []string{"scraped", "quiet"} {
			if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/"+name+"/step", StepRequest{Ticks: ticks}, nil); code != http.StatusOK {
				t.Fatalf("step %s: %d", name, code)
			}
		}
		ran += ticks
		page := scrape()
		if n, ok := metricValue(page, "sgld_tick_seconds_count", "scraped"); !ok || n != float64(ran) {
			t.Fatalf("after %d ticks: sgld_tick_seconds_count %v (present %v)", ran, n, ok)
		}
		if s, ok := metricValue(page, "sgld_tick_seconds_sum", "scraped"); !ok || !(s > 0) {
			t.Fatalf("after %d ticks: sgld_tick_seconds_sum %v (present %v)", ran, s, ok)
		}
		prev, buckets := -1.0, 0
		for _, line := range strings.Split(page, "\n") {
			rest, ok := strings.CutPrefix(line, `sgld_tick_seconds_bucket{session="scraped",le="`)
			if !ok {
				continue
			}
			le, v, _ := strings.Cut(rest, `"} `)
			n, err := strconv.ParseFloat(v, 64)
			if err != nil || n < prev {
				t.Fatalf("bucket le=%s holds %q after %v: not cumulative", le, v, prev)
			}
			prev, buckets = n, buckets+1
			if le == "+Inf" && n != float64(ran) {
				t.Fatalf("bucket le=+Inf holds %v, want the %d ticks run", n, ran)
			}
		}
		if buckets < 2 || prev != float64(ran) {
			t.Fatalf("%d buckets, the last holding %v: want a cumulative ladder ending at %d", buckets, prev, ran)
		}
	}
	if a, b := fetchCheckpoint(t, ts.URL, "scraped"), fetchCheckpoint(t, ts.URL, "quiet"); !bytes.Equal(a, b) {
		t.Error("timing ticks and scraping /metrics changed the world's checkpoint bytes")
	}
	if code := do(t, http.MethodDelete, ts.URL+"/v1/sessions/scraped", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	page := scrape()
	if strings.Contains(page, `sgld_tick_seconds_count{session="scraped"}`) || !strings.Contains(page, `sgld_tick_seconds_count{session="quiet"}`) {
		t.Errorf("after deleting one session the histogram series are:\n%s", page)
	}
}
