package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/epicscale/sgl/internal/server"
)

// MigrateRequest asks the gateway to move a session to another node by
// checkpoint transfer. Tuning fields ride along because restore-time
// tuning is exactly what checkpoints were designed to carry across
// machines (contract #3): a migration is the moment to give a world
// more workers or switch its journal compaction.
type MigrateRequest struct {
	Session string `json:"session"`
	// Target names the destination node; empty picks the session's next
	// node in rendezvous preference order (skipping the current owner).
	Target string `json:"target,omitempty"`

	// Restore-time tuning on the target; zero values keep the engine
	// defaults (they are deliberately NOT copied from the source — a
	// migration that must preserve tuning passes it explicitly).
	Workers int `json:"workers,omitempty"`
	// Incremental is accepted and ignored.
	//
	// Deprecated: index maintenance has no switch (engine.Options.Incremental).
	Incremental bool `json:"incremental,omitempty"`
	Compact     bool `json:"compact,omitempty"`
	// TickRate for the target's clock; 0 resumes the source's rate if
	// its clock was running (a migration never silently pauses a world),
	// negative leaves the target paused.
	TickRate float64 `json:"tickrate,omitempty"`
}

// MigrateResponse reports a completed migration.
type MigrateResponse struct {
	Session string `json:"session"`
	From    string `json:"from"`
	To      string `json:"to"`
	// Tick is the world's tick at transfer: every command acknowledged
	// before the migration began is inside the moved state.
	Tick int64 `json:"tick"`
}

func (g *Gateway) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "gateway: migrate body: %v", err)
		return
	}
	resp, err := g.migrate(req)
	if err != nil {
		g.migrateErrs.Inc()
		writeErr(w, http.StatusConflict, "gateway: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// migrate moves a session to another node by checkpoint transfer and
// atomically repoints its route:
//
//  1. take the route (new non-stream requests for the session park),
//  2. drain requests already in flight — so every acknowledged command
//     response was fully written before the state is read — within the
//     control-plane timeout,
//  3. stop the source clock,
//  4. stream the source checkpoint (Session.Checkpoint drains the
//     admission queues: all acknowledged commands are in the stream),
//  5. PUT it on the target with the requested restore-time tuning,
//  6. repoint the route and delete the source world,
//  7. release the parked requests — they proxy to the target.
//
// On any failure before the repoint the source is restored (clock
// restarted if it was running) and the route is untouched, so the
// worst case is a pause, never a loss. Open SSE subscriptions to the
// source end when the source world is deleted; the client's reconnect
// through the gateway lands on the target.
func (g *Gateway) migrate(req MigrateRequest) (*MigrateResponse, error) {
	g.rmu.RLock()
	rt, ok := g.routes[req.Session]
	g.rmu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no route for session %q", req.Session)
	}

	// Take the route.
	rt.mu.Lock()
	if rt.migrating != nil {
		rt.mu.Unlock()
		return nil, fmt.Errorf("session %q is already migrating", req.Session)
	}
	hold := make(chan struct{})
	rt.migrating = hold
	src := rt.node
	rt.mu.Unlock()
	var repointTo *nodeState // non-nil once the target holds the state
	defer func() {
		rt.mu.Lock()
		if repointTo != nil {
			rt.node = repointTo
		}
		rt.migrating = nil
		rt.mu.Unlock()
		close(hold)
	}()

	// Resolve the target now that the source is pinned.
	var dst *nodeState
	if req.Target == "" {
		for _, ns := range g.place(req.Session) {
			if ns != src {
				dst = ns
				break
			}
		}
		if dst == nil {
			return nil, fmt.Errorf("no alive node other than %s to migrate %q to", src.node.Name, req.Session)
		}
		req.Target = dst.node.Name
	} else {
		dst = g.byName[req.Target]
		if dst == nil {
			return nil, fmt.Errorf("unknown target node %q", req.Target)
		}
		if dst == src {
			return nil, fmt.Errorf("session %q is already on %s", req.Session, req.Target)
		}
		if !dst.alive.Load() {
			return nil, fmt.Errorf("target node %s is not alive", req.Target)
		}
	}

	// Drain in-flight requests: once idle closes, every response the
	// gateway has relayed for this session is complete. One that never
	// completes fails the migration within the control-plane timeout.
	rt.mu.Lock()
	idle := rt.idle
	rt.mu.Unlock()
	if idle != nil {
		var expire <-chan time.Time
		if g.client.Timeout > 0 {
			expire = time.After(g.client.Timeout)
		}
		select {
		case <-idle:
		case <-expire:
			return nil, fmt.Errorf("session %q still has requests in flight after %v", req.Session, g.client.Timeout)
		}
	}

	sessURL := src.node.URL + "/v1/sessions/" + req.Session
	var st server.Status
	if err := g.getJSON(sessURL, &st); err != nil {
		return nil, fmt.Errorf("source status: %w", err)
	}
	if st.Running {
		if err := g.postOK(sessURL + "/stop"); err != nil {
			return nil, fmt.Errorf("stop source clock: %w", err)
		}
	}
	// From here on a failure must restart the source clock.
	fail := func(err error) (*MigrateResponse, error) {
		if st.Running {
			body, _ := json.Marshal(server.RunRequest{TickRate: st.TickRate})
			resp, rerr := g.client.Post(sessURL+"/run", "application/json", bytes.NewReader(body))
			if rerr == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		return nil, err
	}

	ck, err := g.client.Get(sessURL + "/checkpoint")
	if err != nil {
		return fail(fmt.Errorf("fetch source checkpoint: %w", err))
	}
	ckBytes, err := io.ReadAll(ck.Body)
	ck.Body.Close()
	if err != nil || ck.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("fetch source checkpoint: status %d, %v", ck.StatusCode, err))
	}

	// Push to the target under the requested tuning. The clock resumes
	// on the target in the same PUT (?tickrate) — there is no window
	// where the world exists but a client could double-start it.
	rate := req.TickRate
	if rate == 0 && st.Running {
		rate = st.TickRate
	}
	if rate < 0 {
		rate = 0
	}
	q := url.Values{}
	if req.Workers != 0 {
		q.Set("workers", strconv.Itoa(req.Workers))
	}
	if req.Compact {
		q.Set("compact", "true")
	}
	if rate != 0 || st.Running {
		q.Set("tickrate", strconv.FormatFloat(rate, 'g', -1, 64))
	}
	putURL := dst.node.URL + "/v1/sessions/" + req.Session + "/checkpoint"
	if enc := q.Encode(); enc != "" {
		putURL += "?" + enc
	}
	putReq, err := http.NewRequest(http.MethodPut, putURL, bytes.NewReader(ckBytes))
	if err != nil {
		return fail(err)
	}
	putResp, err := g.client.Do(putReq)
	if err != nil {
		return fail(fmt.Errorf("push checkpoint to %s: %w", dst.node.Name, err))
	}
	putBody, _ := io.ReadAll(putResp.Body)
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusCreated {
		return fail(fmt.Errorf("push checkpoint to %s: status %d: %s", dst.node.Name, putResp.StatusCode, putBody))
	}
	var created server.CreateResponse
	_ = json.Unmarshal(putBody, &created)

	// The target holds the authoritative state now: repoint (applied in
	// the deferred release, under the route lock) before worrying about
	// the source's leftovers.
	repointTo = dst
	src.worlds.Add(-1)
	dst.worlds.Add(1)
	g.migrations.Inc()

	delReq, _ := http.NewRequest(http.MethodDelete, sessURL, nil)
	delResp, err := g.client.Do(delReq)
	if err == nil {
		io.Copy(io.Discard, delResp.Body)
		delResp.Body.Close()
		err = okStatus(delResp.StatusCode)
	}
	if err != nil {
		// The world moved, but a paused orphan remains on the source; the
		// route already points at the target, so the orphan serves nothing.
		return &MigrateResponse{Session: req.Session, From: src.node.Name, To: dst.node.Name, Tick: created.Tick},
			fmt.Errorf("migrated, but deleting the source world on %s failed: %w", src.node.Name, err)
	}
	return &MigrateResponse{Session: req.Session, From: src.node.Name, To: dst.node.Name, Tick: created.Tick}, nil
}

func okStatus(code int) error {
	if code < 200 || code > 299 {
		return fmt.Errorf("status %d", code)
	}
	return nil
}

func (g *Gateway) getJSON(url string, out any) error {
	resp, err := g.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := okStatus(resp.StatusCode); err != nil {
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (g *Gateway) postOK(url string) error {
	resp, err := g.client.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return okStatus(resp.StatusCode)
}
