package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/workload"
)

// naiveCheckpoint is the checkpoint of a naive engine of n units, built
// directly — no registry in the way — and never ticked.
func naiveCheckpoint(t *testing.T, n int) []byte {
	t.Helper()
	prog, err := compileWorldScript("")
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Units: n, Density: 0.01, Seed: 5}
	eng, err := engine.New(prog, game.NewMechanics(), workload.Generate(spec), engine.Options{
		Mode: engine.Naive, Categoricals: game.Categoricals(), Seed: 5, Side: spec.Side(), MoveSpeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// naiveRefusal is the create path's wording for a naive world past the
// limit, which every other way in must answer alike.
const naiveRefusal = "a naive world of 4001 units costs 16008001 unit pairs a tick, over the limit 16000000 (4000 units)"

// TestNaiveBoundOnEveryPath: a naive world past maxNaivePairs is refused
// with create's 400 whichever way its checkpoint arrives — PUT
// …/checkpoint (a migration's target), a create that restores a file,
// and a replica's bootstrap — while one at the limit is accepted.
func TestNaiveBoundOnEveryPath(t *testing.T) {
	ts, dir, reg := newTestServerFull(t)
	big := naiveCheckpoint(t, 4001)

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/sessions/big/checkpoint", bytes.NewReader(big))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.String(), naiveRefusal) {
		t.Errorf("PUT checkpoint of a 4001-unit naive world: %d %s; want 400 naming the limit", resp.StatusCode, body.String())
	}

	if err := os.WriteFile(filepath.Join(dir, "big.ckpt"), big, 0o644); err != nil {
		t.Fatal(err)
	}
	var refused errorResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", CreateRequest{Name: "big", Restore: "big.ckpt"}, &refused); code != http.StatusBadRequest ||
		!strings.Contains(refused.Error, naiveRefusal) {
		t.Errorf("restoring create of a 4001-unit naive world: %d %q; want 400 naming the limit", code, refused.Error)
	}

	sess, err := engine.Open(bytes.NewReader(big), game.NewMechanics(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.RegisterReplica("big", sess); err == nil || !strings.Contains(err.Error(), naiveRefusal) {
		t.Errorf("replica of a 4001-unit naive world: %v; want the limit named", err)
	}
	if _, found := reg.Get("big"); found {
		t.Fatal("a refused naive world was registered")
	}

	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/sessions/limit/checkpoint", bytes.NewReader(naiveCheckpoint(t, 4000)))
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("PUT checkpoint of a 4000-unit naive world: %d, want 201", resp.StatusCode)
	}
}
