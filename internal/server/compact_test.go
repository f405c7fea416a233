package server

import (
	"net/http"
	"testing"
)

// Compaction over the wire: POST …/compact folds the applied journal,
// GET …/journal reports the base and serves suffixes via ?since=, and a
// request for folded history is an explicit 410 Gone — not a silent
// empty list a replay client would mistake for "no inputs".
func TestCompactEndpointAndJournalBase(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "cpt", nil)

	inject := func(tick int) {
		t.Helper()
		code := do(t, http.MethodPost, ts.URL+"/v1/sessions/cpt/commands", CommandsRequest{
			Origin: "player-1",
			Commands: []WireCommand{
				{Op: "set", Key: int64(tick % 64), Col: "health", Val: float64(tick)},
				{Op: "set", Key: int64((tick + 7) % 64), Col: "morale", Val: 1},
			},
		}, nil)
		if code != http.StatusOK {
			t.Fatalf("commands at tick %d: status %d", tick, code)
		}
	}
	for tick := 0; tick < 4; tick++ {
		inject(tick)
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/cpt/step", StepRequest{Ticks: 1}, nil); code != http.StatusOK {
			t.Fatalf("step: status %d", code)
		}
	}

	var jr JournalResponse
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/cpt/journal", nil, &jr); code != http.StatusOK {
		t.Fatalf("journal: status %d", code)
	}
	if jr.Base != 0 || len(jr.Entries) != 8 || jr.Tick != 4 {
		t.Fatalf("pre-compact journal = base %d, %d entries at tick %d; want base 0, 8 entries at tick 4", jr.Base, len(jr.Entries), jr.Tick)
	}

	var cp CompactResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/cpt/compact", nil, &cp); code != http.StatusOK {
		t.Fatalf("compact: status %d", code)
	}
	if cp.Base != 4 || cp.Tick != 4 {
		t.Fatalf("compact response = %+v, want base 4 at tick 4", cp)
	}

	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/cpt/journal", nil, &jr); code != http.StatusOK {
		t.Fatalf("journal after compact: status %d", code)
	}
	if jr.Base != 4 || len(jr.Entries) != 0 {
		t.Fatalf("post-compact journal = base %d, %d entries; want base 4, 0 entries", jr.Base, len(jr.Entries))
	}

	// New traffic lands in the tail and is served from the base on.
	// (Sharded admissions become journal-visible at the next drain — the
	// commit of the step that applies them, stamping them 5 — so step
	// once.)
	inject(4)
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/cpt/step", StepRequest{Ticks: 1}, nil); code != http.StatusOK {
		t.Fatalf("step: status %d", code)
	}
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/cpt/journal?since=4", nil, &jr); code != http.StatusOK {
		t.Fatalf("journal?since=4: status %d", code)
	}
	if len(jr.Entries) != 2 {
		t.Fatalf("journal?since=4 = %d entries, want the 2 stamped 5", len(jr.Entries))
	}

	// Folded history is gone, explicitly.
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/cpt/journal?since=0", nil, nil); code != http.StatusGone {
		t.Fatalf("journal?since=0 after compact: status %d, want 410", code)
	}
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/cpt/journal?since=-1", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("journal?since=-1: status %d, want 400", code)
	}
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/cpt/journal?since=bogus", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("journal?since=bogus: status %d, want 400", code)
	}
}

// The create-time compact knob auto-folds at every tick boundary: the
// base tracks the tick and the served journal never accumulates applied
// history.
func TestCreateWithCompactKnob(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "auto", func(req *CreateRequest) { req.Compact = true })

	for tick := 0; tick < 3; tick++ {
		code := do(t, http.MethodPost, ts.URL+"/v1/sessions/auto/commands", CommandsRequest{
			Origin:   "bot",
			Commands: []WireCommand{{Op: "set", Key: int64(tick), Col: "health", Val: 2}},
		}, nil)
		if code != http.StatusOK {
			t.Fatalf("commands: status %d", code)
		}
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/auto/step", StepRequest{Ticks: 1}, nil); code != http.StatusOK {
			t.Fatalf("step: status %d", code)
		}
	}

	var jr JournalResponse
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/auto/journal", nil, &jr); code != http.StatusOK {
		t.Fatalf("journal: status %d", code)
	}
	if jr.Base != 3 || jr.Tick != 3 || len(jr.Entries) != 0 {
		t.Fatalf("auto-compacted journal = base %d, %d entries at tick %d; want base 3, 0 entries at tick 3", jr.Base, len(jr.Entries), jr.Tick)
	}
}
