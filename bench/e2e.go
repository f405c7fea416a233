package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/epicscale/sgl/internal/cluster"
	"github.com/epicscale/sgl/internal/server"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig sizes one end-to-end run of one workload.
type runConfig struct {
	Spec        workloadSpec
	Seed        uint64
	Window      time.Duration // the measured interval
	Warmup      time.Duration // traffic and clock run this long before the window opens
	SetupCycles int           // create→first tick→delete cycles timed before the window
	VerifyTicks int           // K: synchronous ticks compared byte-for-byte with a standalone engine
	Migrations  int           // ping-pong migrations after the window (gateway workloads)
	Launch      launcher
}

// runResult is everything one end-to-end run measured.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	WindowS  float64 `json:"window_s"`
	// Correct is the verdict of the run's own output verification;
	// Problems says what failed.
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`
	// Attempted and Failed count every operation the run issued: a
	// refused, failed or timed-out request, a command never pushed back,
	// and each failed verification check count as failed.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Metrics holds the end-to-end metrics and the process/generator
	// side metrics by their fixed names; Dists the full shape of every
	// timing (median, p99, highest supported percentile, sample count).
	Metrics map[string]metric `json:"metrics"`
	Dists   map[string]dist   `json:"dists"`
}

// check counts one operation or verification check and, when it did not
// hold, records why.
func (r *runResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// api is a JSON client of one base URL.
type api struct {
	c    *http.Client
	base string
}

func (a api) call(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	if err := do(a.c, a.base, request{Method: method, Path: path, Body: body}, &buf); err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = buf.Bytes()
		return nil
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// pushEvent is one SSE answer as the subscriber saw it.
type pushEvent struct {
	at    time.Duration // receipt, offset from the run's time origin
	value float64
}

// subscriber holds one …/subscribe stream open and records every answer.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	events []pushEvent
	err    error
}

// subscribe opens the stream and returns once the initial answer (the
// baseline sum) has arrived. Receipt times are offsets from origin.
func subscribe(base, session string, origin time.Time) (*subscriber, float64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	u := fmt.Sprintf("%s/v1/sessions/%s/subscribe?q=%s", base, session, url.QueryEscape(moraleQuery))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		cancel()
		return nil, 0, err
	}
	// No client timeout: the stream is meant to outlive the window.
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		cancel()
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, 0, fmt.Errorf("subscribe: %s", resp.Status)
	}
	s := &subscriber{cancel: cancel, done: make(chan struct{})}
	first := make(chan float64, 1)
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		event, sentFirst := "", false
		for sc.Scan() {
			line := sc.Text()
			if name, ok := strings.CutPrefix(line, "event: "); ok {
				event = name
				continue
			}
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok || event != "answer" {
				continue
			}
			at := time.Since(origin)
			var ev server.SubscribeEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil || ev.Error != "" || len(ev.Values) != 1 {
				s.mu.Lock()
				s.err = fmt.Errorf("bad answer event %q", data)
				s.mu.Unlock()
				continue
			}
			if !sentFirst {
				sentFirst = true
				first <- ev.Values[0]
				continue
			}
			s.mu.Lock()
			s.events = append(s.events, pushEvent{at: at, value: ev.Values[0]})
			s.mu.Unlock()
		}
		if err := sc.Err(); err != nil && ctx.Err() == nil {
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
		}
		if !sentFirst {
			close(first)
		}
	}()
	select {
	case v, ok := <-first:
		if !ok {
			s.close()
			return nil, 0, fmt.Errorf("subscribe: stream ended before the first answer")
		}
		return s, v, nil
	case <-time.After(10 * time.Second):
		s.close()
		return nil, 0, fmt.Errorf("subscribe: no initial answer within 10s")
	}
}

// close ends the stream and waits for the reader; it returns the events
// seen and any stream error other than the close itself.
func (s *subscriber) close() ([]pushEvent, error) {
	s.cancel()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events, s.err
}

// runEndToEnd drives one workload against freshly started programs and
// returns its measurements. An error means the run could not be carried
// out at all (a program did not start, the world could not be created);
// wrong outputs and failed requests are reported in the result instead.
func runEndToEnd(cfg runConfig) (res *runResult, err error) {
	spec := cfg.Spec
	res = &runResult{
		Workload: spec.Name, Seed: cfg.Seed, WindowS: cfg.Window.Seconds(),
		Metrics: map[string]metric{}, Dists: map[string]dist{},
	}

	// Start the programs; whatever happens, stop every one of them and
	// wait for it before returning.
	var nodes []*node
	var usages []usage
	defer func() {
		for i := len(nodes) - 1; i >= 0; i-- {
			u, serr := nodes[i].stop()
			usages = append(usages, u)
			if serr != nil && err == nil {
				err = serr
			}
		}
		if err == nil {
			res.finishProc(nodes, usages)
		}
	}()
	start := func(n *node, serr error) (*node, error) {
		if serr == nil {
			nodes = append(nodes, n)
		}
		return n, serr
	}
	front, err := start(cfg.Launch.sgld("east"))
	if err != nil {
		return nil, err
	}
	if spec.Gateway {
		west, err := start(cfg.Launch.sgld("west"))
		if err != nil {
			return nil, err
		}
		if front, err = start(cfg.Launch.sglgw([]*node{front, west})); err != nil {
			return nil, err
		}
	}
	ctl := api{c: &http.Client{Timeout: 60 * time.Second}, base: front.url}

	// Set-up time: create request sent → the world's first committed tick
	// (script compile, army generation, first index build), several
	// times over, before anything else has warmed the process.
	var setups []float64
	for c := 0; c < cfg.SetupCycles; c++ {
		name := fmt.Sprintf("setup-%d", c)
		t0 := time.Now()
		err := ctl.call("POST", "/v1/sessions", spec.World.createRequest(name, cfg.Seed), nil)
		if err == nil {
			err = ctl.call("POST", "/v1/sessions/"+name+"/step", server.StepRequest{Ticks: 1}, nil)
		}
		dt := time.Since(t0)
		res.Attempted += 3
		if err != nil {
			return nil, fmt.Errorf("set-up cycle %d: %w", c, err)
		}
		setups = append(setups, dt.Seconds())
		if err := ctl.call("DELETE", "/v1/sessions/"+name, nil, nil); err != nil {
			return nil, fmt.Errorf("set-up cycle %d: %w", c, err)
		}
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Dists["setup_s"] = summarize(setups)

	// The measured world. Precondition (contract #4, served ≡
	// standalone): after K synchronous ticks its checkpoint must equal,
	// byte for byte, the one a standalone engine writes at tick K.
	const session = "w"
	sess := "/v1/sessions/" + session
	if err := ctl.call("POST", "/v1/sessions", spec.World.createRequest(session, cfg.Seed), nil); err != nil {
		return nil, fmt.Errorf("create world: %w", err)
	}
	defer func() { _ = ctl.call("DELETE", sess, nil, nil) }()
	if err := ctl.call("POST", sess+"/step", server.StepRequest{Ticks: cfg.VerifyTicks}, nil); err != nil {
		return nil, fmt.Errorf("verification ticks: %w", err)
	}
	var served []byte
	if err := ctl.call("GET", sess+"/checkpoint", nil, &served); err != nil {
		return nil, fmt.Errorf("fetch checkpoint: %w", err)
	}
	res.Attempted += 3
	ref, err := spec.World.standalone(cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := ref.Step(cfg.VerifyTicks); err != nil {
		return nil, fmt.Errorf("standalone reference: %w", err)
	}
	var want bytes.Buffer
	if err := ref.Checkpoint(&want); err != nil {
		return nil, fmt.Errorf("standalone reference: %w", err)
	}
	res.check(bytes.Equal(served, want.Bytes()),
		"served checkpoint at tick %d differs from the standalone engine's (%d vs %d bytes)", cfg.VerifyTicks, len(served), want.Len())

	// Prime the actor's keys to a known morale, so the subscriber's
	// baseline — and with it the sum that acknowledges each command — is
	// known without reading unit state.
	tr := traffic{seed: cfg.Seed, session: session, w: spec.World}
	prime := server.CommandsRequest{Origin: primeOrigin}
	for _, k := range tr.keys() {
		prime.Commands = append(prime.Commands, server.WireCommand{Op: "set", Key: k, Col: "morale", Val: primedMorale})
	}
	if err := ctl.call("POST", sess+"/commands", prime, nil); err != nil {
		return nil, fmt.Errorf("prime commands: %w", err)
	}
	if err := ctl.call("POST", sess+"/step", server.StepRequest{Ticks: 1}, nil); err != nil {
		return nil, fmt.Errorf("prime tick: %w", err)
	}
	res.Attempted += 2

	// Traffic: one subscriber, one spectator connection, one actor
	// connection, all on one time origin. The clock starts with them; the
	// window opens after the warm-up.
	origin := time.Now()
	sub, baseSum, err := subscribe(front.url, session, origin)
	if err != nil {
		return nil, err
	}
	defer sub.close() // idempotent: the run closes it itself after the window
	stop := make(chan struct{})
	var qs, cs []sample
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		qs = runOpenLoop(newConnClient(10*time.Second), front.url, tr.queries(spec.QueryRate), origin, stop)
	}()
	go func() {
		defer wg.Done()
		cs = runOpenLoop(newConnClient(10*time.Second), front.url, tr.commands(spec.CommandRate), origin, stop)
	}()
	stopTraffic := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopTraffic()
	if err := ctl.call("POST", sess+"/run", server.RunRequest{TickRate: spec.TickRate}, nil); err != nil {
		return nil, fmt.Errorf("start clock: %w", err)
	}
	res.Attempted++

	time.Sleep(time.Until(origin.Add(cfg.Warmup)))
	var st0, st1 server.Status
	if err := ctl.call("GET", sess, nil, &st0); err != nil {
		return nil, fmt.Errorf("status: %w", err)
	}
	t0 := time.Now()
	cpu0 := childCPU(nodes)
	time.Sleep(time.Until(origin.Add(cfg.Warmup + cfg.Window)))
	if err := ctl.call("GET", sess, nil, &st1); err != nil {
		return nil, fmt.Errorf("status: %w", err)
	}
	elapsed := time.Since(t0).Seconds()
	cpu1 := childCPU(nodes)
	res.Attempted++
	res.check(st1.ClockErr == "", "clock stopped with an error: %s", st1.ClockErr)
	winLo, winHi := cfg.Warmup, cfg.Warmup+cfg.Window

	// Let the last in-window commands reach a tick boundary and come
	// back as pushes, then close the subscriber: migrations end streams
	// by design (the source world is deleted), so it must not ride them.
	grace := 300 * time.Millisecond
	if spec.TickRate > 0 {
		grace += time.Duration(2 / spec.TickRate * float64(time.Second))
	}
	time.Sleep(grace)
	events, subErr := sub.close()
	res.check(subErr == nil, "subscriber stream: %v", subErr)

	// Migration phase: ping-pong the world between the two nodes with
	// the actor (and the spectator) still sending through the gateway.
	var migs []float64
	if spec.Gateway {
		for m := 0; m < cfg.Migrations; m++ {
			req := cluster.MigrateRequest{Session: session, Workers: 1, Incremental: spec.World.Incremental, Compact: spec.World.Compact}
			var resp cluster.MigrateResponse
			tm := time.Now()
			err := ctl.call("POST", "/gw/migrate", req, &resp)
			res.check(err == nil, "migration %d: %v", m, err)
			if err != nil {
				continue
			}
			migs = append(migs, float64(time.Since(tm).Microseconds())/1e3)
			time.Sleep(50 * time.Millisecond) // let traffic land on the new owner between moves
		}
	}
	stopTraffic()

	// Stop the clock; one more synchronous tick stamps and applies every
	// command still waiting in admission, so the audit below sees all of
	// them.
	if err := ctl.call("POST", sess+"/stop", nil, nil); err != nil {
		return nil, fmt.Errorf("stop clock: %w", err)
	}
	if err := ctl.call("POST", sess+"/step", server.StepRequest{Ticks: 1}, nil); err != nil {
		return nil, fmt.Errorf("drain tick: %w", err)
	}
	res.Attempted += 2

	sums := tr.sums(baseSum, len(cs))
	res.verifyOutputs(ctl, sess, tr, sums, cs)
	res.measure(cfg, st0, st1, elapsed, cpu1-cpu0, qs, cs, events, sums, migs, winLo, winHi)
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// childCPU sums the live children's CPU seconds (0 in-process).
func childCPU(nodes []*node) float64 {
	total := 0.0
	for _, n := range nodes {
		s, _ := cpuSeconds(n.pid)
		total += s
	}
	return total
}

// verifyOutputs checks the stopped world's outputs: indexed answers equal
// scan answers on 32 probes, the morale sum is exactly what the
// acknowledged commands add up to, and the journal holds every
// acknowledged command.
func (r *runResult) verifyOutputs(ctl api, sess string, tr traffic, sums []float64, cs []sample) {
	side := tr.w.side()
	for p := 0; p < 32; p++ {
		x, y := tr.zone(1<<30+p, side)
		q := server.QueryRequest{Src: zoneQuery, Args: []float64{x, y, zoneRadius}}
		var idx, scan server.QueryResponse
		err := ctl.call("POST", sess+"/query", q, &idx)
		if err == nil {
			q.Scan = true
			err = ctl.call("POST", sess+"/query", q, &scan)
		}
		r.check(err == nil, "probe %d: %v", p, err)
		r.check(err != nil || (sameFloats(idx.Values, scan.Values) && idx.Tick == scan.Tick),
			"probe %d at (%g,%g): indexed %v ≠ scan %v", p, x, y, idx.Values, scan.Values)
	}

	// An unacknowledged command may or may not have landed, so nothing
	// past the first one can be audited exactly (each is also counted as
	// a failed operation where the samples are tallied).
	acked := 0
	for acked < len(cs) && cs[acked].OK {
		acked++
	}
	r.check(acked == len(cs) && acked > 0, "%d of %d commands acknowledged before the first failure", acked, len(cs))
	if acked == 0 {
		return
	}
	wantSum := sums[acked-1]
	var got server.QueryResponse
	err := ctl.call("POST", sess+"/query", server.QueryRequest{Src: moraleQuery, Scan: true}, &got)
	r.check(err == nil && len(got.Values) == 1 && (got.Values[0] == wantSum || (acked < len(cs) && got.Values[0] > wantSum)),
		"final morale sum %v (%v), acknowledged commands add up to %v", got.Values, err, wantSum)

	// Journal audit. Origins stamp their own sequence from 0, so the
	// actor's retained entries must be a gap-free run ending at its last
	// acknowledged command — and starting at 0 unless compaction folded
	// the prefix into the base (then the exact sum above vouches for it).
	var j server.JournalResponse
	if err := ctl.call("GET", sess+"/journal", nil, &j); err != nil {
		r.check(false, "journal: %v", err)
		return
	}
	var seqs []uint64
	for _, e := range j.Entries {
		if e.Origin == actorOrigin {
			seqs = append(seqs, e.Seq)
		}
	}
	gapFree := true
	for i := 1; i < len(seqs); i++ {
		gapFree = gapFree && seqs[i] == seqs[i-1]+1
	}
	r.check(gapFree, "journal has a gap in the actor's sequence numbers")
	if len(seqs) > 0 {
		r.check(seqs[len(seqs)-1]+1 >= uint64(acked), "journal ends at actor seq %d, %d commands were acknowledged", seqs[len(seqs)-1], acked)
	}
	if j.Base == 0 {
		r.check(len(seqs) >= acked && seqs[0] == 0, "uncompacted journal holds %d actor entries, %d commands were acknowledged", len(seqs), acked)
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// measure turns the run's raw observations into named metrics.
func (r *runResult) measure(cfg runConfig, st0, st1 server.Status, elapsed, cpuS float64,
	qs, cs []sample, events []pushEvent, sums []float64, migs []float64, winLo, winHi time.Duration) {
	spec := cfg.Spec
	ticks := float64(st1.Tick - st0.Tick)
	r.Metrics["unit_ticks_per_s"] = metric{float64(spec.World.Units) * ticks / elapsed, "1/s"}
	if spec.TickRate > 0 {
		r.Metrics["tick_keepup"] = metric{ticks / (elapsed * spec.TickRate), "ratio"}
	}
	// 0 where the children's CPU time cannot be read (in-process, non-Linux).
	r.Metrics["proc.cpu_s_per_ktick"] = metric{cpuS / math.Max(ticks, 1) * 1000, "s"}

	var lates []float64
	latencies := func(name string, ss []sample) {
		var us []float64
		for _, sm := range ss {
			r.Attempted++
			if !sm.OK {
				r.Failed++
				continue
			}
			if sm.Due >= winLo && sm.Due < winHi {
				us = append(us, float64(sm.latency().Nanoseconds())/1e3)
				lates = append(lates, float64(sm.late().Nanoseconds())/1e3)
			}
		}
		d := summarize(us)
		r.Dists[name+"_us"] = d
		r.Metrics[name+"_p50_us"] = metric{d.P50, "us"}
		r.Metrics[name+"_p90_us"] = metric{d.P90, "us"}
		r.Metrics[name+"_p99_us"] = metric{d.P99, "us"}
	}
	latencies("query", qs)
	latencies("command", cs)
	r.Metrics["gen.late_p99_us"] = metric{summarize(lates).P99, "us"}

	// Input → push: command i is reflected by the first answer whose sum
	// reaches sums[i]. Both sequences only rise, so one forward walk
	// pairs them. An in-window command no answer reflected is a failure.
	var pushMS []float64
	e := 0
	for i, sm := range cs {
		if !sm.OK || sm.Due < winLo || sm.Due >= winHi {
			continue
		}
		for e < len(events) && events[e].value < sums[i] {
			e++
		}
		r.Attempted++
		if e == len(events) {
			r.Failed++
			continue
		}
		pushMS = append(pushMS, float64((events[e].at-sm.Due).Microseconds())/1e3)
	}
	d := summarize(pushMS)
	r.Dists["input_to_push_ms"] = d
	r.Metrics["input_to_push_p50_ms"] = metric{d.P50, "ms"}

	if len(migs) > 0 {
		d := summarize(migs)
		r.Dists["migrate_ms"] = d
		r.Metrics["migrate_p50_ms"] = metric{median(migs), "ms"}
	}
}

// finishProc adds what the stopped children cost.
func (r *runResult) finishProc(nodes []*node, usages []usage) {
	var start, rss float64
	for _, n := range nodes {
		start += n.startMS / float64(len(nodes))
	}
	for _, u := range usages {
		rss = math.Max(rss, u.peakRSSMB)
	}
	r.Metrics["proc.start_ms"] = metric{start, "ms"}
	r.Metrics["proc.peak_rss_mb"] = metric{rss, "MB"}
}
