package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/epicscale/sgl/internal/cluster"
)

// TestPprofBehindFlag: the gateway serves /debug/pprof/ only with
// -pprof. Without it the path is the gateway's own 404; with it the
// index page answers, and the gateway's routes are still served beside
// it.
func TestPprofBehindFlag(t *testing.T) {
	gw, err := cluster.New(cluster.Config{Nodes: []cluster.Node{{Name: "node0", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	for _, on := range []bool{false, true} {
		h := handler(gw, on)
		for path, want := range map[string]int{
			"/debug/pprof/": map[bool]int{false: http.StatusNotFound, true: http.StatusOK}[on],
			"/gw/nodes":     http.StatusOK,
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != want {
				t.Errorf("-pprof=%v: GET %s = %d, want %d", on, path, rec.Code, want)
			}
		}
	}
}
