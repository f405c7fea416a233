package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/server"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/workload"
)

// naiveWriter is a node that hosts one naive world of 4001 units — built
// directly, never ticked, which no registry would accept — as far as its
// status, readiness and checkpoint routes tell.
func naiveWriter(t *testing.T) *httptest.Server {
	t.Helper()
	script, err := parser.Parse(game.Script)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sem.Check(script, game.Schema(), game.Consts())
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Units: 4001, Density: 0.01, Seed: 5}
	eng, err := engine.New(prog, game.NewMechanics(), workload.Generate(spec), engine.Options{
		Mode: engine.Naive, Categoricals: game.Categoricals(), Seed: 5, Side: spec.Side(), MoveSpeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := eng.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			json.NewEncoder(w).Encode(server.ReadyResponse{Worlds: 1})
		case "/v1/sessions/big":
			json.NewEncoder(w).Encode(server.Status{Name: "big", Units: 4001, Created: time.Now()})
		case "/v1/sessions/big/checkpoint":
			w.Write(ck.Bytes())
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

const naiveRefusal = "over the limit 16000000 (4000 units)"

// TestNaiveBoundOnMigrationAndReplica: a naive world past the server's
// limit cannot reach a daemon by migration or as a replica; the target
// refuses it with create's wording and is left without it.
func TestNaiveBoundOnMigrationAndReplica(t *testing.T) {
	src, dst := naiveWriter(t), newNode(t)
	g, err := New(Config{ProbeEvery: time.Hour, Nodes: []Node{{Name: "src", URL: src.URL}, {Name: "dst", URL: dst.ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Close)
	g.ProbeNow()
	if _, ok := g.lookup("big"); !ok { // adopted, as on a first request
		t.Fatal("the gateway did not find the naive world on its node")
	}
	if _, err := g.Migrate(MigrateRequest{Session: "big", Target: "dst"}); err == nil || !strings.Contains(err.Error(), naiveRefusal) {
		t.Errorf("migrating a 4001-unit naive world: %v; want the target's refusal naming the limit", err)
	}
	if owner, _ := g.RouteOf("big"); owner != "src" {
		t.Errorf("route = %q after the refused migration, want src", owner)
	}
	if _, found := dst.reg.Get("big"); found {
		t.Error("the target kept a refused naive world")
	}

	reg := server.NewRegistry()
	defer reg.Close()
	if _, err := StartFollower(FollowerConfig{Writer: src.URL, Session: "big", Registry: reg}); err == nil || !strings.Contains(err.Error(), naiveRefusal) {
		t.Errorf("following a 4001-unit naive world: %v; want the refusal naming the limit", err)
	}
	if _, found := reg.Get("big"); found {
		t.Error("a refused naive replica was registered")
	}
}
