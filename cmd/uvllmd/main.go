// Command uvllmd is the long-running verification-as-a-service front-end:
// an HTTP/JSON server over the UVLLM pipeline. Clients submit designs or
// repair jobs against the benchmark modules, poll status, and stream
// per-iteration progress; a bounded worker pool executes jobs through the
// same service.Execute path as cmd/uvllm, so a job submitted over HTTP
// produces exactly the verdict the CLI would print.
//
//	uvllmd -addr :8080                               # serve
//
//	curl -s localhost:8080/v1/modules                # catalog
//	curl -s -X POST localhost:8080/v1/jobs \
//	     -d '{"module":"adder_8bit","inject":"FuncLogic","tenant":"alice"}'
//	curl -s localhost:8080/v1/jobs/job-1             # status + result
//	curl -sN localhost:8080/v1/jobs/job-1/events     # SSE progress stream
//	curl -s localhost:8080/v1/metrics                # queue depth, latency
//	                                                 # percentiles, cache hit rates
//
// The queue applies backpressure (429 + Retry-After when full) and fair
// round-robin scheduling across tenants. SIGTERM/SIGINT starts a graceful
// drain: new submissions get 503, queued jobs end in the "drained" state,
// in-flight jobs finish, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"uvllm/internal/obs"
	"uvllm/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		queue    = flag.Int("queue", service.DefaultQueueLimit, "job queue bound: submissions beyond this get 429 + Retry-After")
		drainSec = flag.Int("drain-timeout", 60, "seconds to wait for in-flight jobs on SIGTERM before exiting anyway")
		ttlSec   = flag.Int("result-ttl", 0, "seconds a finished job's result stays addressable before GC (0 = forever)")
		pprofOn  = flag.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/")
		slowSpan = flag.Duration("slowspan", 0, "log every job's trace spans that last at least this long (0 = off), e.g. -slowspan 250ms")
	)
	knobs := service.Bind(flag.CommandLine, service.FlagBackend|service.FlagCover|service.FlagFormal|service.FlagWorkers)
	flag.Parse()
	opts, err := knobs.Options()
	if err != nil {
		fatalf("%v", err)
	}
	if *queue < 1 {
		fatalf("-queue must be >= 1, got %d", *queue)
	}
	if *drainSec < 0 {
		fatalf("-drain-timeout must be >= 0, got %d", *drainSec)
	}
	if *ttlSec < 0 {
		fatalf("-result-ttl must be >= 0, got %d", *ttlSec)
	}
	if *slowSpan < 0 {
		fatalf("-slowspan must be >= 0, got %v", *slowSpan)
	}

	srv := service.NewServer(service.RunnerConfig{
		Workers:    knobs.Workers,
		QueueLimit: *queue,
		Services:   service.DefaultServices(),
		Defaults:   opts,
		ResultTTL:  time.Duration(*ttlSec) * time.Second,
		SlowSpan:   *slowSpan,
		OnSlowSpan: func(jobID string, sp obs.SpanInfo) {
			log.Printf("uvllmd: slow span: job=%s span=%s dur=%s", jobID, sp.Name, sp.Dur.Round(time.Microsecond))
		},
	})
	var handler http.Handler = srv
	if *pprofOn {
		// The service API keeps its own mux; pprof mounts beside it so
		// profiling never shadows an API route.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
		log.Printf("uvllmd: pprof enabled at %s/debug/pprof/", *addr)
	}
	// A client that trickles its headers (slowloris) or parks an idle
	// keep-alive connection is cut off. ReadTimeout and WriteTimeout stay
	// unset: GET /v1/jobs/{id}/events is a long-lived SSE response, and a
	// read deadline that expires mid-stream cancels the request context.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-sigs
		log.Printf("uvllmd: %v: draining (in-flight jobs finish, queued jobs end drained, new submissions get 503)", sig)
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSec)*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("uvllmd: drain incomplete: %v", err)
		}
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		httpSrv.Shutdown(shutCtx)
	}()

	log.Printf("uvllmd: serving on %s (workers=%d queue=%d backend=%s)",
		*addr, srv.Runner().Workers(), *queue, opts.SimBackend())
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatalf("%v", err)
	}
	<-done
	log.Printf("uvllmd: drained, bye")
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "uvllmd: "+format+"\n", args...)
	os.Exit(2)
}
