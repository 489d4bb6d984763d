package telemetry

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"time"
)

// metricsServer owns the listener + http.Server pair Serve creates.
type metricsServer struct {
	ln   net.Listener
	srv  *http.Server
	addr string
}

func (s *metricsServer) close() error { return s.srv.Close() }

// Handler returns the endpoint mux:
//
//	/metrics     Prometheus text exposition
//	/debug/vars  the report as JSON, plus up and uptime_seconds
//	/healthz     "ok"
//
// Usable directly (httptest, embedding in an existing server) without
// Serve.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteMetrics(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.vars())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	return mux
}

// Serve starts the HTTP endpoint on addr (":0" binds a free port) and
// returns the bound address. Serving twice is an error; Close stops the
// server.
func (r *Registry) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: r.Handler(), ReadHeaderTimeout: 5 * time.Second}
	s := &metricsServer{ln: ln, srv: srv, addr: ln.Addr().String()}
	r.mu.Lock()
	if r.server != nil {
		r.mu.Unlock()
		ln.Close()
		return "", errAlreadyServing
	}
	r.server = s
	r.mu.Unlock()
	go srv.Serve(ln)
	return s.addr, nil
}

var errAlreadyServing = errors.New("telemetry: registry already serving")

// Addr returns the bound address of a served registry ("" if Serve was
// not called or the server was closed).
func (r *Registry) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.server == nil {
		return ""
	}
	return r.server.addr
}
