// Load generator: the workload driver that proves the serving layer
// sustains many concurrent worlds with spectator query fan-out. It is a
// pure HTTP client of the API in server.go — it exercises exactly the
// code path external clients do, so its numbers include JSON and
// transport cost, not just engine cost.
//
// Shape of the run: Worlds sessions are created, each clock started at
// TickRate; Spectators goroutines per world then issue observation
// queries (the windowed Zone aggregate — one range-tree probe indexed,
// an O(n) scan otherwise) with rotating probe windows for Duration,
// while Actors goroutines per world inject commands through the command
// endpoint (rotating set-column mutations — the player half of the
// traffic mix). Results come back as one metrics.LoadGenRow per world:
// achieved tick rate against target, query and command throughput, and
// client-observed latency quantiles for both.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/epicscale/sgl/internal/metrics"
)

// LoadGenConfig parameterizes one load-generation run.
type LoadGenConfig struct {
	// BaseURL of the target daemon, e.g. "http://127.0.0.1:7070".
	BaseURL string
	// Worlds is how many concurrent sessions to host (the acceptance bar
	// is ≥ 8). Sessions are named loadgen-0 … loadgen-{W-1}.
	Worlds int
	// Units / Density / Seed shape each world's army (world i runs seed
	// Seed+i so the worlds are distinct simulations, not replicas).
	Units   int
	Density float64
	Seed    uint64
	// Script is the SGL source each world runs (empty = battle script).
	Script string
	// TickRate is each world's clock target in ticks/second (0 =
	// uncapped).
	TickRate float64
	// Spectators is the number of concurrent query goroutines per world.
	Spectators int
	// Actors is the number of concurrent command-injecting goroutines
	// per world (0 = spectators only). Each actor rotates set-column
	// commands across the army through POST …/commands.
	Actors int
	// Subscribers is the number of push subscribers per world (0 =
	// none). Each holds one GET …/subscribe SSE stream on a fixed probe
	// window for the whole run and counts the answer events pushed; the
	// report compares that count against the polls the same freshness
	// would have cost (one per subscriber per tick).
	Subscribers int
	// Duration is the measurement window.
	Duration time.Duration
	// Workers / Incremental tune each session's engine. Compact turns on
	// end-of-tick journal compaction — the right setting for a long
	// actor-heavy run, where an uncompacted journal grows with every
	// injected command.
	Workers     int
	Incremental bool
	Compact     bool
	// KeepSessions leaves the worlds running after the run (for poking at
	// /metrics afterwards); default tears them down.
	KeepSessions bool
}

// loadgenQuery is the spectator question every goroutine asks: activity
// and total health inside a moving window — literally the aggregate
// BenchmarkQueryFanout and the repository benchmark's spectators ask, so
// the loadgen numbers and theirs stay comparable by construction.
const loadgenQuery = metrics.FanoutQuery

// LoadGen drives one run and returns a row per world. The error is
// non-nil only for setup/teardown failures; individual query failures
// are counted in the rows instead (a load generator that aborts on the
// first timeout measures nothing).
func LoadGen(cfg LoadGenConfig) (rows []metrics.LoadGenRow, err error) {
	if cfg.Worlds <= 0 {
		cfg.Worlds = 8
	}
	if cfg.Units <= 0 {
		cfg.Units = 1000
	}
	if cfg.Spectators <= 0 {
		cfg.Spectators = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	client := &http.Client{Timeout: 30 * time.Second}

	name := func(i int) string { return fmt.Sprintf("loadgen-%d", i) }

	// Teardown registered before creation: a mid-loop create failure
	// must still delete the worlds already created (their clocks are
	// running on the target daemon), not leak them. A failed delete is a
	// run failure (unless an earlier error already is): a world left
	// ticking on the daemon would silently poison the next run's numbers.
	created := 0
	defer func() {
		if cfg.KeepSessions {
			return
		}
		for i := 0; i < created; i++ {
			req, _ := http.NewRequest(http.MethodDelete, cfg.BaseURL+"/v1/sessions/"+name(i), nil)
			resp, derr := client.Do(req)
			if derr == nil {
				derr = decodeResponse(resp, nil)
				resp.Body.Close()
			}
			if derr != nil && err == nil {
				err = fmt.Errorf("loadgen: delete %s: %w", name(i), derr)
			}
		}
	}()

	// Create the worlds, clocks running.
	for i := 0; i < cfg.Worlds; i++ {
		req := CreateRequest{
			Name:    name(i),
			Script:  cfg.Script,
			Units:   cfg.Units,
			Density: cfg.Density,
			Seed:    cfg.Seed + uint64(i),
			Workers: cfg.Workers, Incremental: cfg.Incremental, Compact: cfg.Compact,
			TickRate: cfg.TickRate,
		}
		if req.TickRate == 0 {
			req.TickRate = -1 // create-time 0 means "don't start"; -1 = uncapped
		}
		if err := postJSON(client, cfg.BaseURL+"/v1/sessions", req, nil); err != nil {
			return nil, fmt.Errorf("loadgen: create %s: %w", name(i), err)
		}
		created++
	}

	// Tick counts at the start of the window (clocks are already running;
	// the window measures steady-state serving, not engine warmup). Each
	// world's window is timed at its own status fetches: the fetches are
	// sequential HTTP calls, and dividing every world's tick delta by one
	// shared wall-clock window would inflate the rates of the worlds
	// sampled late.
	startTicks := make([]int64, cfg.Worlds)
	startAt := make([]time.Time, cfg.Worlds)
	for i := range startTicks {
		var st Status
		if err := getJSON(client, cfg.BaseURL+"/v1/sessions/"+name(i), &st); err != nil {
			return nil, fmt.Errorf("loadgen: status %s: %w", name(i), err)
		}
		startTicks[i] = st.Tick
		startAt[i] = time.Now()
	}

	// Spectator and actor fan-out.
	type worldSample struct {
		mu         sync.Mutex
		latency    []float64 // micros
		errs       int
		cmdLatency []float64 // micros
		cmdErrs    int
		pushes     int
		subErrs    int
	}
	samples := make([]worldSample, cfg.Worlds)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < cfg.Worlds; i++ {
		for sp := 0; sp < cfg.Spectators; sp++ {
			wg.Add(1)
			go func(i, sp int) {
				defer wg.Done()
				url := cfg.BaseURL + "/v1/sessions/" + name(i) + "/query"
				ws := &samples[i]
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					// Rotate the probe window so spectators don't all ask
					// the same question of the same partition.
					x := float64((7*n + 13*sp) % 97)
					y := float64((13*n + 29*sp) % 89)
					q := QueryRequest{Src: loadgenQuery, Args: []float64{x, y, 12}}
					t0 := time.Now()
					err := postJSON(client, url, q, &QueryResponse{})
					dt := float64(time.Since(t0).Nanoseconds()) / 1e3
					// A request in flight when the window closed finishes
					// during the drain; counting it would inflate QPS
					// against a window that ends at stop.
					select {
					case <-stop:
						return
					default:
					}
					ws.mu.Lock()
					if err != nil {
						ws.errs++
					} else {
						ws.latency = append(ws.latency, dt)
					}
					ws.mu.Unlock()
				}
			}(i, sp)
		}
	}
	// Actor fan-out: each actor rotates morale nudges across the army —
	// always-valid mutations (keys 0…Units-1 persist through resurrection),
	// so every submission should be accepted and the latency sample
	// measures the command path, not rejection handling.
	for i := 0; i < cfg.Worlds; i++ {
		for a := 0; a < cfg.Actors; a++ {
			wg.Add(1)
			go func(i, a int) {
				defer wg.Done()
				url := cfg.BaseURL + "/v1/sessions/" + name(i) + "/commands"
				ws := &samples[i]
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					key := int64((17*n + 5*a) % cfg.Units)
					req := CommandsRequest{
						Origin: fmt.Sprintf("actor-%d", a),
						Commands: []WireCommand{
							{Op: "set", Key: key, Col: "morale", Val: float64(3 + (n+a)%6)},
						},
					}
					t0 := time.Now()
					err := postJSON(client, url, req, &CommandsResponse{})
					dt := float64(time.Since(t0).Nanoseconds()) / 1e3
					select {
					case <-stop:
						return
					default:
					}
					ws.mu.Lock()
					if err != nil {
						ws.cmdErrs++
					} else {
						ws.cmdLatency = append(ws.cmdLatency, dt)
					}
					ws.mu.Unlock()
				}
			}(i, a)
		}
	}
	// Subscriber fan-out: each subscriber holds one SSE stream on a fixed
	// probe window (fixed on purpose — a maintained answer is per probe,
	// so a stable probe is what a dashboard or client widget looks like)
	// and counts the answer events pushed. The stream client has no
	// timeout: the connection is supposed to outlive the whole window.
	// Streams end via context cancel after the window closes.
	subCtx, subCancel := context.WithCancel(context.Background())
	defer subCancel()
	streamClient := &http.Client{}
	for i := 0; i < cfg.Worlds; i++ {
		for sb := 0; sb < cfg.Subscribers; sb++ {
			wg.Add(1)
			go func(i, sb int) {
				defer wg.Done()
				ws := &samples[i]
				x := float64((17*sb + 7) % 97)
				y := float64((23*sb + 31) % 89)
				u := fmt.Sprintf("%s/v1/sessions/%s/subscribe?q=%s&args=%g,%g,12",
					cfg.BaseURL, name(i), url.QueryEscape(loadgenQuery), x, y)
				req, rerr := http.NewRequestWithContext(subCtx, http.MethodGet, u, nil)
				if rerr != nil {
					ws.mu.Lock()
					ws.subErrs++
					ws.mu.Unlock()
					return
				}
				resp, rerr := streamClient.Do(req)
				if rerr != nil {
					ws.mu.Lock()
					ws.subErrs++
					ws.mu.Unlock()
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode/100 != 2 {
					io.Copy(io.Discard, resp.Body)
					ws.mu.Lock()
					ws.subErrs++
					ws.mu.Unlock()
					return
				}
				sc := bufio.NewScanner(resp.Body)
				// Answer vectors scale with query outputs; the default 64KB
				// token cap would kill the stream mid-window on a long data
				// line and silently under-count pushes.
				sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
				for sc.Scan() {
					if strings.HasPrefix(sc.Text(), "data: ") {
						ws.mu.Lock()
						ws.pushes++
						ws.mu.Unlock()
					}
				}
				// A stream that died mid-window (network failure, oversized
				// line) must count as an error, or the report under-states
				// pushes with zero recorded failures. The window-close
				// cancel is the one expected way out.
				if err := sc.Err(); err != nil && !errors.Is(err, context.Canceled) {
					ws.mu.Lock()
					ws.subErrs++
					ws.mu.Unlock()
				}
			}(i, sb)
		}
	}
	windowStart := time.Now()
	time.Sleep(cfg.Duration)
	// The QPS window closes when spectators are told to stop — the
	// post-stop drain of in-flight requests (which can run long on a
	// saturated daemon) must not deflate the throughput denominator.
	window := time.Since(windowStart).Seconds()
	close(stop)
	subCancel() // unblock the SSE readers
	wg.Wait()

	// Collect: end ticks and per-world rows. Tick rates use each world's
	// own start/end fetch times — the clocks keep running while the
	// sequential end-of-window fetches drain, and the shared window would
	// misattribute those extra ticks.
	rows = make([]metrics.LoadGenRow, 0, cfg.Worlds)
	for i := 0; i < cfg.Worlds; i++ {
		var st Status
		if err := getJSON(client, cfg.BaseURL+"/v1/sessions/"+name(i), &st); err != nil {
			return nil, fmt.Errorf("loadgen: status %s: %w", name(i), err)
		}
		elapsed := time.Since(startAt[i]).Seconds()
		ws := &samples[i]
		ws.mu.Lock()
		mean, p50, p99, maxv := metrics.LatencySummary(ws.latency)
		nq := len(ws.latency)
		errs := ws.errs
		_, cmdP50, cmdP99, _ := metrics.LatencySummary(ws.cmdLatency)
		nc := len(ws.cmdLatency)
		cmdErrs := ws.cmdErrs
		pushes := ws.pushes
		subErrs := ws.subErrs
		ws.mu.Unlock()
		ticks := st.Tick - startTicks[i]
		rows = append(rows, metrics.LoadGenRow{
			World:      st.Name,
			Ticks:      ticks,
			TickRate:   float64(ticks) / elapsed,
			TargetRate: cfg.TickRate,
			Queries:    nq,
			QPS:        float64(nq) / window,
			MeanMicros: mean, P50Micros: p50, P99Micros: p99, MaxMicros: maxv,
			Errors:       errs,
			Commands:     nc,
			CPS:          float64(nc) / window,
			CmdP50Micros: cmdP50, CmdP99Micros: cmdP99,
			CmdErrors:   cmdErrs,
			Subscribers: cfg.Subscribers,
			Pushes:      pushes,
			PushRate:    float64(pushes) / window,
			PollEquiv:   int64(cfg.Subscribers) * ticks,
			SubErrors:   subErrs,
		})
	}
	return rows, nil
}

// postJSON posts v and decodes the response into out (ignored when nil).
// Non-2xx statuses are errors carrying the server's message.
func postJSON(c *http.Client, url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

// getJSON fetches url into out.
func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

func decodeResponse(resp *http.Response, out any) error {
	if resp.StatusCode/100 != 2 {
		var e errorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("unexpected status %s", resp.Status)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
