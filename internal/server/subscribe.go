// Push subscriptions: GET /v1/sessions/{name}/subscribe streams a
// query's answer over Server-Sent Events, pushing only when the value
// changes. This is the delivery half of maintained query answers — the
// world's clock evaluates every live subscription once per tick through
// Engine.QueryMaintained (so N subscribers on the same query and probe share
// one maintained answer and one classification per tick), compares the
// result bitwise against the last pushed value, and enqueues an event
// only on change.
//
// Backpressure policy: the tick never blocks on a subscriber. Each
// subscriber owns a small buffered channel; when it is full the event is
// dropped, the drop is counted (sgld_push_drops_total), and the
// subscriber is marked for resync — the next tick pushes unconditionally
// (with "resync": true) so a slow client that catches up is current
// again after one event, having missed intermediate values, never having
// stalled the simulation.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/sgl/lint"
)

// subSpec is one subscription's evaluation: a compiled query, its
// arguments and its probe, as a QueryRequest names them.
type subSpec struct {
	q     *engine.Query
	warns []lint.Diagnostic // the query's lint findings, pushed once at stream start
	args  []float64
	probe engine.Probe
}

// eval runs the spec against the engine through the maintained-answer
// path. Must be called under a Session view (the clock's notify does).
func (sp *subSpec) eval(e *engine.Engine) ([]float64, error) {
	return e.QueryMaintained(sp.q, sp.probe, sp.args...)
}

// SubscribeEvent is the JSON payload of one SSE "answer" event.
type SubscribeEvent struct {
	Tick   int64     `json:"tick"`
	Values []float64 `json:"values,omitempty"`
	// Error carries a per-tick evaluation failure (e.g. the probed unit
	// despawned); the subscription stays live and recovers when the
	// query evaluates again.
	Error string `json:"error,omitempty"`
	// Resync marks the first event after the subscriber fell behind and
	// intermediate events were dropped.
	Resync bool `json:"resync,omitempty"`
}

// subEventBuffer is each subscriber's channel depth. Small on purpose:
// an SSE writer that cannot drain a handful of per-tick events is slow,
// and the policy for slow is drop-and-resync, not buffer.
const subEventBuffer = 8

type subscriber struct {
	spec subSpec
	ch   chan SubscribeEvent
	// mu guards the compare-and-push state below. The notifying
	// goroutine is single (clock or synchronous Step, never both — Step
	// refuses while the clock runs), but Subscribe's post-registration
	// catch-up push may race one notify run, so the state needs a real
	// lock; it is per-subscriber and held only across a compare+send, so
	// it never serializes the fan-out.
	mu       sync.Mutex
	last     []float64
	lastErr  string
	hasLast  bool
	dropped  bool
	lastTick int64 // tick of the newest state in last/lastErr
}

// Subscribe registers a push subscriber and returns it along with the
// initial answer event (evaluated inside the same view that snapshots
// the tick). It fails if the world was deleted or the query's probe form
// rejects the spec.
func (w *World) Subscribe(spec subSpec) (*subscriber, SubscribeEvent, error) {
	var ev SubscribeEvent
	var err error
	w.sess.View(func(e *engine.Engine) {
		ev.Tick = e.TickCount()
		ev.Values, err = spec.eval(e)
	})
	if err != nil {
		return nil, ev, err
	}
	sub := &subscriber{spec: spec, ch: make(chan SubscribeEvent, subEventBuffer)}
	sub.last, sub.hasLast, sub.lastTick = ev.Values, true, ev.Tick
	w.submu.Lock()
	if w.subsClosed {
		w.submu.Unlock()
		return nil, ev, fmt.Errorf("server: world %s: deleted", w.Name)
	}
	if w.subs == nil {
		w.subs = map[*subscriber]struct{}{}
	}
	w.subs[sub] = struct{}{}
	w.subscribers.Set(float64(len(w.subs)))
	w.pushes.Inc() // the initial answer is a push too
	w.submu.Unlock()

	// A tick that landed between the initial evaluation above and the
	// registration just made was notified before this subscriber existed;
	// without a re-check the client would hold the pre-tick answer until
	// the value next changes — forever, if the clock stops here. Evaluate
	// once more and enqueue a catch-up event if the world moved on.
	w.sess.View(func(e *engine.Engine) {
		tick := e.TickCount()
		if tick == ev.Tick {
			return
		}
		vals, verr := sub.spec.eval(e)
		errStr := ""
		if verr != nil {
			errStr = verr.Error()
		}
		sub.mu.Lock()
		defer sub.mu.Unlock()
		if tick <= sub.lastTick {
			return // a concurrent notify already pushed fresher state
		}
		if errStr == sub.lastErr && sameValues(vals, sub.last) {
			sub.lastTick = tick
			return
		}
		select {
		case sub.ch <- SubscribeEvent{Tick: tick, Values: vals, Error: errStr}:
			sub.last, sub.lastErr, sub.hasLast = vals, errStr, true
			sub.lastTick = tick
			w.pushes.Inc()
		default:
			sub.dropped = true
			w.pushDrops.Inc()
		}
	})
	return sub, ev, nil
}

// Unsubscribe removes a subscriber; idempotent.
func (w *World) Unsubscribe(sub *subscriber) {
	w.submu.Lock()
	defer w.submu.Unlock()
	delete(w.subs, sub)
	w.subscribers.Set(float64(len(w.subs)))
}

// closeSubscribers releases every streaming handler and refuses new
// subscriptions; called exactly once, by Registry.Delete.
func (w *World) closeSubscribers() {
	w.submu.Lock()
	defer w.submu.Unlock()
	if w.subsClosed {
		return
	}
	w.subsClosed = true
	close(w.subsDone)
}

// notifySubscribers evaluates every live subscription against the
// post-tick snapshot and pushes the answers that changed. Runs on the
// world's single notifying goroutine right after a successful Step(1);
// the nonblocking send is the whole backpressure policy. submu is held
// only to snapshot the subscriber set — never across the evaluation
// fan-out, so Subscribe/Unsubscribe (and SSE handler teardown) are not
// serialized behind the tick. A subscriber removed concurrently may
// still receive one last event into its buffered channel; the handler
// is gone, so it is simply never read.
func (w *World) notifySubscribers() {
	// Every completed tick also wakes journal long-polls (WaitTick):
	// notifySubscribers is the one per-tick hook every stepping path
	// (clock, synchronous Step, replica replay) already runs.
	w.bumpTick()
	w.submu.Lock()
	subs := make([]*subscriber, 0, len(w.subs))
	for sub := range w.subs {
		subs = append(subs, sub)
	}
	w.submu.Unlock()
	if len(subs) == 0 {
		return
	}
	w.sess.View(func(e *engine.Engine) {
		tick := e.TickCount()
		for _, sub := range subs {
			vals, err := sub.spec.eval(e)
			errStr := ""
			if err != nil {
				errStr = err.Error()
			}
			sub.mu.Lock()
			if !sub.dropped && sub.hasLast && errStr == sub.lastErr && sameValues(vals, sub.last) {
				sub.mu.Unlock()
				continue
			}
			ev := SubscribeEvent{Tick: tick, Values: vals, Error: errStr, Resync: sub.dropped}
			select {
			case sub.ch <- ev:
				sub.last, sub.lastErr, sub.hasLast = vals, errStr, true
				sub.lastTick = tick
				sub.dropped = false
				sub.mu.Unlock()
				w.pushes.Inc()
			default:
				sub.dropped = true
				sub.mu.Unlock()
				w.pushDrops.Inc()
			}
		}
	})
}

// sameValues compares answer vectors bitwise, so NaN outputs compare
// stable instead of pushing every tick.
func sameValues(a, b []float64) bool {
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

// parseSubSpec builds a subscription spec from the request's query
// string: q (required source), args (comma-separated floats), and at
// most one probe — x & y, or unit — checked by the same rule as a
// QueryRequest's.
func parseSubSpec(wd *World, r *http.Request) (subSpec, error) {
	var sp subSpec
	qs := r.URL.Query()
	src := qs.Get("q")
	if src == "" {
		return sp, errors.New("query parameter q is required")
	}
	q, warns, err := wd.CompiledQuery(src)
	if err != nil {
		return sp, err
	}
	sp.q, sp.warns = q, warns
	if raw := qs.Get("args"); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return sp, fmt.Errorf("bad args value %q: %v", part, err)
			}
			sp.args = append(sp.args, v)
		}
	}
	var req QueryRequest
	if req.X, err = optFloat(qs, "x"); err != nil {
		return sp, err
	}
	if req.Y, err = optFloat(qs, "y"); err != nil {
		return sp, err
	}
	if raw := qs.Get("unit"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return sp, fmt.Errorf("bad unit %q: %v", raw, err)
		}
		req.Unit = &v
	}
	sp.probe, err = req.probe()
	return sp, err
}

// optFloat parses the float query parameter name, nil when absent.
func optFloat(qs url.Values, name string) (*float64, error) {
	raw := qs.Get(name)
	if raw == "" {
		return nil, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return nil, fmt.Errorf("bad %s %q: %v", name, raw, err)
	}
	return &v, nil
}

// handleSubscribe streams maintained answers as SSE "answer" events.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	wd, ok := s.world(w, r)
	if !ok {
		return
	}
	spec, err := parseSubSpec(wd, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	sub, initial, err := wd.Subscribe(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer wd.Unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // common reverse proxies buffer SSE otherwise
	w.WriteHeader(http.StatusOK)
	// Lint findings ride the stream once, before the first answer, so a
	// subscriber learns up front that (say) its non-divisible aggregate
	// rederives the full answer every dirty tick — and then keeps
	// receiving correct answers anyway.
	if len(spec.warns) > 0 {
		if err := writeSSEWarnings(w, spec.warns); err != nil {
			return
		}
	}
	if err := writeSSE(w, initial); err != nil {
		return
	}
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-wd.subsDone:
			return
		case ev := <-sub.ch:
			if err := writeSSE(w, ev); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// writeSSE renders one "answer" event in SSE framing.
func writeSSE(w http.ResponseWriter, ev SubscribeEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: answer\ndata: %s\n\n", data)
	return err
}

// writeSSEWarnings renders the subscription's lint findings as a single
// "warnings" event carrying a JSON array of diagnostics.
func writeSSEWarnings(w http.ResponseWriter, warns []lint.Diagnostic) error {
	data, err := json.Marshal(warns)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: warnings\ndata: %s\n\n", data)
	return err
}
