package obs

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
)

// Serve starts the metrics endpoint for r on addr (":0" picks a free port)
// and returns the bound address plus a shutdown func that closes the
// listener and waits for the serving goroutine to exit. It mounts
//
//	/metrics     the Prometheus text exposition of r
//	/debug/vars  JSON: expvar's process vars (cmdline, memstats) and the
//	             whole registry as one "platod2gl" object (see Expvar)
//
// The /debug/vars document is built per endpoint and nothing is published to
// the process-global expvar namespace, so any number of endpoints, each with
// its own registry, can live in one process.
func Serve(addr string, r *Registry) (bound string, shutdown func(context.Context) error, err error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/vars", r.varsHandler())
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	var serveErr error
	go func() {
		defer close(done)
		serveErr = srv.Serve(lis)
	}()
	return lis.Addr().String(), func(ctx context.Context) error {
		err := srv.Shutdown(ctx)
		<-done
		if err == nil && !errors.Is(serveErr, http.ErrServerClosed) {
			err = serveErr // the accept loop died before shutdown
		}
		return err
	}, nil
}

// varsHandler renders the /debug/vars document in expvar's own format.
func (r *Registry) varsHandler() http.Handler {
	reg := r.Expvar()
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n%q: %s,\n%q: %s,\n%q: %s\n}\n",
			"cmdline", expvar.Get("cmdline"),
			"memstats", expvar.Get("memstats"),
			"platod2gl", reg)
	})
}
