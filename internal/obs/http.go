package obs

import (
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// newDebugMux builds the debug handler StartDebugServer serves:
//
//	/healthz        200 "ok" while the process serves (liveness probe)
//	/debug/metrics  registry JSON snapshot
//	/debug/vars     expvar (stdlib memstats)
//	/debug/trace    Chrome trace_event timeline (capturing tracers)
//	/debug/pprof/*  runtime profiles
//
// reg and tr may each be nil; the corresponding endpoints then report
// 404/503 instead of being absent, so probes keep stable URLs.
func newDebugMux(reg *Registry, tr *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.Error(w, "no metrics registry", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if tr == nil {
			http.Error(w, "no tracer attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := WriteChromeTrace(w, tr); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running debug HTTP endpoint.
type DebugServer struct {
	// Addr is the server's resolved listen address (host:port).
	Addr    string
	ln      net.Listener
	srv     *http.Server
	serveMu sync.Mutex
	served  error // Serve's exit error, nil while running or after a clean Close
}

// StartDebugServer listens on addr (":0" picks a free port) and serves
// the debug mux in a background goroutine until Close. A bind failure
// (port in use, bad address) is returned here, synchronously — callers
// must fail fast on it rather than run without their debug surface; an
// error the serve loop hits later is retained and surfaced by Err and
// Close.
func StartDebugServer(addr string, reg *Registry, tr *Tracer) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen on %s: %w", addr, err)
	}
	s := &DebugServer{
		Addr: ln.Addr().String(),
		ln:   ln,
		srv:  &http.Server{Handler: newDebugMux(reg, tr)},
	}
	go func() {
		err := serveResult(s.srv.Serve(ln))
		s.serveMu.Lock()
		s.served = err
		s.serveMu.Unlock()
	}()
	return s, nil
}

// serveResult classifies the serve loop's exit: ErrServerClosed — even
// wrapped — is the Close lifecycle, not a failure.
func serveResult(err error) error {
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Err reports the error that stopped the serve loop, if any. Nil while
// the server is running and after a clean Close.
func (s *DebugServer) Err() error {
	s.serveMu.Lock()
	defer s.serveMu.Unlock()
	return s.served
}

// Close shuts the server down and returns the first error of the
// shutdown or — if the serve loop already died on its own — the error
// that killed it, so a silently dead debug endpoint is noticed at the
// latest on the tool's exit path.
func (s *DebugServer) Close() error {
	err := s.srv.Close()
	if serr := s.Err(); serr != nil && err == nil {
		err = serr
	}
	return err
}
