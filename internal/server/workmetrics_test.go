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
