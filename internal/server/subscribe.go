// Push subscriptions: GET /v1/sessions/{name}/subscribe streams a
// query's answer over Server-Sent Events, pushing only when the value
// changes. After every tick the world's notifying goroutine evaluates
// each live subscription with ReadView.Query on the view that tick
// published — the same one-shot a polled /query runs, so a push is the
// polled answer at the tick it names, bit for bit — compares the result
// bitwise against the last pushed value, and enqueues an event only on
// change. No push takes the session lock: a subscription waits for no
// tick and holds none off.
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

// eval answers the spec on read view v.
func (sp *subSpec) eval(v *engine.ReadView) ([]float64, error) {
	return v.Query(sp.q, sp.probe, sp.args...)
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
	dropped  bool
	lastTick int64 // tick of the newest state in last/lastErr
}

// Subscribe registers a push subscriber and returns it along with the
// initial answer event (evaluated on the read view that labels its
// tick). It fails if the world was deleted or the query's probe form
// rejects the spec.
func (w *World) Subscribe(spec subSpec) (*subscriber, SubscribeEvent, error) {
	v := w.sess.ReadView()
	ev := SubscribeEvent{Tick: v.Tick()}
	var err error
	ev.Values, err = spec.eval(v)
	if err != nil {
		return nil, ev, err
	}
	sub := &subscriber{spec: spec, ch: make(chan SubscribeEvent, subEventBuffer)}
	sub.last, sub.lastTick = ev.Values, ev.Tick
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
	if v = w.sess.ReadView(); v.Tick() != ev.Tick {
		w.push(sub, v)
	}
	return sub, ev, nil
}

// push evaluates sub on view v and enqueues the answer if it changed,
// unconditionally (marked Resync) after a drop. A view older than the
// newest state pushed — the catch-up in Subscribe racing a notify —
// pushes nothing.
func (w *World) push(sub *subscriber, v *engine.ReadView) {
	vals, err := sub.spec.eval(v)
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if v.Tick() < sub.lastTick {
		return
	}
	if !sub.dropped && errStr == sub.lastErr && sameValues(vals, sub.last) {
		sub.lastTick = v.Tick()
		return
	}
	select {
	case sub.ch <- SubscribeEvent{Tick: v.Tick(), Values: vals, Error: errStr, Resync: sub.dropped}:
		sub.last, sub.lastErr = vals, errStr
		sub.lastTick = v.Tick()
		sub.dropped = false
		w.pushes.Inc()
	default:
		sub.dropped = true
		w.pushDrops.Inc()
	}
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

// notifySubscribers evaluates every live subscription on the read view
// the tick just published and pushes the answers that changed. Runs on the
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
	v := w.sess.ReadView()
	for _, sub := range subs {
		w.push(sub, v)
	}
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

// handleSubscribe streams a query's changed answers as SSE "answer"
// events.
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
	// subscriber learns up front that (say) its condition is not
	// index-usable — and then keeps receiving correct answers anyway.
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
