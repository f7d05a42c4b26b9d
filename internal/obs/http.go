package obs

import (
	"io"
	"net"
	"net/http"
	"net/http/pprof"
)

// MetricsContentType is the Content-Type of every metrics surface: the
// Prometheus text exposition type, which the "name value" line format is a
// (label-order-stable, sorted) subset of.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// DebugHandler builds the opt-in debug surface over the named hosts'
// records, or every host's when none is named: /metrics (the sorted text
// snapshot, also mounted at /debug/metrics), /debug/events (the
// flight-recorder timeline), /debug/health (the windowed RED dashboard),
// /debug/slow (the slow-call ledger), /healthz, and the pprof family under
// /debug/pprof/.  The handler is mounted on its own mux so nothing leaks into
// http.DefaultServeMux.
func DebugHandler(hosts ...string) http.Handler {
	mux := http.NewServeMux()
	page := func(path, ctype string, render func(io.Writer, []hostRecord)) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", ctype)
			render(w, records(hosts))
		})
	}
	const plain = "text/plain; charset=utf-8"
	page("/metrics", MetricsContentType, writeMetrics)
	page("/debug/metrics", MetricsContentType, writeMetrics)
	page("/debug/events", plain, writeEvents)
	page("/debug/health", plain, writeHealth)
	page("/debug/slow", plain, writeSlow)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", plain)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug listens on addr and serves the debug surface for hosts until
// the process exits.  It returns the bound address (useful with ":0") or an
// error if the listen fails; serving itself runs on a background goroutine.
func ServeDebug(addr string, hosts ...string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: DebugHandler(hosts...)}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
