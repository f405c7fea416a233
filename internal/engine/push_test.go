package engine_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/server"
)

// The push half of the query contract, driven through the server: a
// subscription is ReadView.Query on the view of the tick each event
// names, so what a subscriber is pushed is what a client polling the
// indexed /query at that tick is told, bit for bit (pushed ≡ polled).
// These tests live beside the engine because they need its test-only
// options (the rebuild seam, the mid-tick hook) on a served world.

// answer is one evaluation as a client sees it: the values, or the
// error that replaced them.
type answer struct {
	vals []float64
	err  string
}

func (a answer) same(b answer) bool {
	if a.err != b.err || len(a.vals) != len(b.vals) {
		return false
	}
	for i := range a.vals {
		if math.Float64bits(a.vals[i]) != math.Float64bits(b.vals[i]) {
			return false
		}
	}
	return true
}

// serve hosts a paused indexed world built with tune on a fresh server.
func serve(t *testing.T, tune engine.Options) (*httptest.Server, *server.World) {
	t.Helper()
	reg := server.NewRegistry()
	ts := httptest.NewServer(server.New(reg, t.TempDir()))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	wd, err := reg.Create("w", server.WorldSpec{Units: 90, Seed: 13, Mode: engine.Indexed, Tune: tune})
	if err != nil {
		t.Fatal(err)
	}
	return ts, wd
}

// subscribe opens a subscription stream and forwards its answer events
// until ctx is cancelled. A line that does not decode arrives as an
// event carrying the decode error, so the comparison fails on it.
func subscribe(t *testing.T, ctx context.Context, streamURL string) <-chan server.SubscribeEvent {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, streamURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("subscribe %s: status %d", streamURL, resp.StatusCode)
	}
	ch := make(chan server.SubscribeEvent, 64) // more than any stream here carries: the reader never waits
	go func() {
		defer resp.Body.Close()
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			if e, ok := strings.CutPrefix(line, "event: "); ok {
				event = e
			}
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok || event != "answer" {
				continue
			}
			var ev server.SubscribeEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				ev = server.SubscribeEvent{Tick: -1, Error: "decode: " + err.Error()}
			}
			ch <- ev
		}
	}()
	return ch
}

// poll asks the world's indexed /query for req and returns the answer
// and the tick the response names (-1 for an error, which names none).
func poll(t *testing.T, base string, req server.QueryRequest) (answer, int64) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sessions/w/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		server.QueryResponse
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return answer{err: out.Error}, -1
	}
	return answer{vals: out.Values}, out.Tick
}

// probeForm is one way to probe a query, as a QueryRequest and as the
// subscribe URL's parameters.
type probeForm struct {
	name   string
	x, y   *float64
	unit   *int64
	params string
}

func atForm(x, y float64) probeForm {
	return probeForm{name: fmt.Sprintf("at(%g,%g)", x, y), x: &x, y: &y, params: fmt.Sprintf("&x=%g&y=%g", x, y)}
}

func unitForm(key int64) probeForm {
	return probeForm{name: fmt.Sprintf("unit%d", key), unit: &key, params: fmt.Sprintf("&unit=%d", key)}
}

// zooForms gives each zoo query two probe forms: its own kind's and a
// unit's (a second unit for unit queries). Unit 9 is despawned mid-run,
// so its streams push the probe's error as well as values.
func zooForms(zq engine.ZooQuery) []probeForm {
	switch {
	case zq.Unit:
		return []probeForm{unitForm(9), unitForm(42)}
	case zq.At:
		return []probeForm{atForm(10, 14), unitForm(9)}
	}
	return []probeForm{{name: "world"}, unitForm(9)}
}

// TestPushedMatchesPolled is the contract pushed ≡ polled: for every
// query of the zoo in two probe forms, at Workers {1, 4}, maintaining
// and on the rebuild seam, with set, despawn and tune commands in the
// stream, a subscriber is pushed exactly the ticks whose polled answer
// changed — the initial answer first — each event carrying the answer
// the indexed /query gave at the tick the event names, bit for bit,
// errors included.
func TestPushedMatchesPolled(t *testing.T) {
	const ticks = 10
	for _, c := range []struct {
		workers int
		rebuild bool
	}{{1, false}, {1, true}, {4, false}, {4, true}} {
		t.Run(fmt.Sprintf("w%d-rebuild%v", c.workers, c.rebuild), func(t *testing.T) {
			tune := engine.Options{Workers: c.workers}
			if c.rebuild {
				engine.RebuildOnly(&tune)
			}
			ts, wd := serve(t, tune)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			type stream struct {
				name   string
				req    server.QueryRequest
				ch     <-chan server.SubscribeEvent
				polled []answer // by tick
			}
			var streams []*stream
			for _, zq := range engine.QueryZoo() {
				args := make([]string, len(zq.Args))
				for i, a := range zq.Args {
					args[i] = strconv.FormatFloat(a, 'g', -1, 64)
				}
				for _, f := range zooForms(zq) {
					s := &stream{
						name: zq.Name + "/" + f.name,
						req:  server.QueryRequest{Src: zq.Src, Args: zq.Args, X: f.x, Y: f.y, Unit: f.unit},
					}
					q := "?q=" + url.QueryEscape(zq.Src) + f.params
					if len(args) > 0 {
						q += "&args=" + strings.Join(args, ",")
					}
					s.ch = subscribe(t, ctx, ts.URL+"/v1/sessions/w/subscribe"+q)
					streams = append(streams, s)
				}
			}
			pollAll := func(tick int) {
				for _, s := range streams {
					a, at := poll(t, ts.URL, s.req)
					if a.err == "" && at != int64(tick) {
						t.Fatalf("%s: polled at tick %d, want %d", s.name, at, tick)
					}
					s.polled = append(s.polled, a)
				}
			}
			pollAll(0)
			for tk := 1; tk <= ticks; tk++ {
				if cmds := engine.QueryCommands()[tk]; cmds != nil {
					if _, err := wd.SubmitCommands("push", cmds); err != nil {
						t.Fatalf("tick %d: submit: %v", tk, err)
					}
				}
				if err := wd.Step(1); err != nil {
					t.Fatal(err)
				}
				pollAll(tk)
			}

			errs, changed := 0, 0
			for _, s := range streams {
				want := []int{0}
				for tk := 1; tk <= ticks; tk++ {
					if !s.polled[tk].same(s.polled[tk-1]) {
						want = append(want, tk)
					}
				}
				changed += len(want) - 1
				for j, tk := range want {
					var ev server.SubscribeEvent
					select {
					case got, ok := <-s.ch:
						if !ok {
							t.Fatalf("%s: stream closed after %d events, want %d", s.name, j, len(want))
						}
						ev = got
					case <-time.After(5 * time.Second):
						t.Fatalf("%s: %d events, want %d (timed out)", s.name, j, len(want))
					}
					if ev.Resync {
						t.Errorf("%s: event %d resynced; a drained subscriber never drops", s.name, j)
					}
					pushed := answer{vals: ev.Values, err: ev.Error}
					if ev.Tick != int64(tk) || !pushed.same(s.polled[tk]) {
						t.Fatalf("%s: event %d is tick %d %+v; polled tick %d %+v", s.name, j, ev.Tick, pushed, tk, s.polled[tk])
					}
					if pushed.err != "" {
						errs++
					}
				}
				select {
				case ev := <-s.ch:
					t.Errorf("%s: an event beyond the %d changes: %+v", s.name, len(want), ev)
				case <-time.After(20 * time.Millisecond):
				}
			}
			// The grid is only a contract if answers moved and a probe
			// failed while the streams ran.
			if changed == 0 || errs == 0 {
				t.Fatalf("%d changed answers and %d pushed errors across %d streams, want both > 0", changed, errs, len(streams))
			}
			if e := wd.Session().Engine(); c.rebuild {
				engine.AssertRebuilt(t, e)
			} else if e.Stats.MaintainTicks == 0 {
				t.Fatalf("the maintaining cell maintained no tick: %+v", e.Stats)
			}
		})
	}
}

// TestSubscribeDoesNotWaitForStep: a push reads the published view and
// takes no session lock, so a subscription's initial answer returns —
// the view's, labelled with its tick — while a Step holds the writer
// lock in the middle of its tick.
func TestSubscribeDoesNotWaitForStep(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	tune := engine.Options{Workers: 1}
	engine.SetMidTick(&tune, func() {
		if armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	})
	ts, wd := serve(t, tune)
	var once sync.Once
	releaseTick := func() { once.Do(func() { close(release) }) }
	defer releaseTick()

	const src = `aggregate Army(u, p) := count(*) as n, sum(e.health) as hp over e where e.player = p;`
	want, err := wd.Session().ReadView().Query(compile(t, wd, src), engine.World(), 1)
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	stepped := make(chan error, 1)
	go func() { stepped <- wd.Step(1) }()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ch := subscribe(t, ctx, ts.URL+"/v1/sessions/w/subscribe?q="+url.QueryEscape(src)+"&args=1")
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("stream closed before the initial answer")
		}
		if got := (answer{vals: ev.Values, err: ev.Error}); ev.Tick != 0 || !got.same(answer{vals: want}) {
			t.Fatalf("initial answer tick %d %+v, want tick 0 %v", ev.Tick, got, want)
		}
	case <-ctx.Done():
		t.Fatal("the initial answer waited for the tick in progress")
	}
	releaseTick()
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
}

// compile is the world's compiled query for src.
func compile(t *testing.T, wd *server.World, src string) *engine.Query {
	t.Helper()
	q, _, err := wd.CompiledQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
