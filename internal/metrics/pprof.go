package metrics

import (
	"net/http"
	"net/http/pprof"
)

// WithProfiling serves the net/http/pprof endpoints under /debug/pprof/
// in front of h, which keeps every other path. The daemons mount it only
// behind their -pprof flag: a profile costs the process CPU while it
// runs, and the endpoints name the binary's internals.
func WithProfiling(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}
