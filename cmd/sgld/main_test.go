package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/epicscale/sgl/internal/server"
)

// TestReplicaFlagsRefuseToServeAsWriter pins that a daemon asked to be a
// replica never comes up as a writable daemon: replica flags that name no
// session, or name sessions without a writer to follow, fail at startup
// with an error naming the flag, before the daemon makes its data dir or
// listens. A run that starts serving instead blocks until signalled, so
// each case runs under a deadline.
func TestReplicaFlagsRefuseToServeAsWriter(t *testing.T) {
	for _, tc := range []struct {
		name           string
		follow         string
		followSessions string
		want           string
	}{
		{"follow-with-only-commas", "http://127.0.0.1:1", ",", "-follow needs"},
		{"follow-with-only-blanks", "http://127.0.0.1:1", " ", "-follow needs"},
		{"sessions-without-follow", "", "alpha", "-follow-sessions needs -follow"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dataDir := filepath.Join(t.TempDir(), "data")
			errc := make(chan error, 1)
			go func() {
				errc <- run(runConfig{
					addr: "127.0.0.1:0", dataDir: dataDir,
					follow: tc.follow, followSessions: tc.followSessions,
				}, io.Discard)
			}()
			select {
			case err := <-errc:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("run = %v, want an error containing %q", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("run kept serving: the daemon came up as a writer")
			}
			if _, err := os.Stat(dataDir); !os.IsNotExist(err) {
				t.Errorf("data dir exists after a startup error (stat: %v)", err)
			}
		})
	}
}

// TestPprofBehindFlag: the daemon serves /debug/pprof/ only with -pprof.
// Without it the path is the API server's 404; with it the index page
// answers, and the API is still served beside it.
func TestPprofBehindFlag(t *testing.T) {
	for _, on := range []bool{false, true} {
		h := handler(server.New(server.NewRegistry(), ""), on)
		for path, want := range map[string]int{
			"/debug/pprof/": map[bool]int{false: http.StatusNotFound, true: http.StatusOK}[on],
			"/healthz":      http.StatusOK,
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != want {
				t.Errorf("-pprof=%v: GET %s = %d, want %d", on, path, rec.Code, want)
			}
		}
	}
}
