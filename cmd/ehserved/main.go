// Command ehserved is the grid-execution daemon: an HTTP/JSON service
// that accepts declarative experiment grids, runs them on a shared
// Session worker pool, and serves progress and results — the first
// serving surface for the system.
//
// Quickstart:
//
//	ehserved -addr :8080 &
//	curl -s -X POST localhost:8080/v1/grids -d '{"name":"demo","events":60,"seeds":[1,2]}'
//	curl -s localhost:8080/v1/grids/g1                      # status + progress
//	curl -sN localhost:8080/v1/grids/g1/results?format=ndjson  # follow per-point results
//	curl -s localhost:8080/v1/grids/g1/results              # final deterministic JSON
//
// Or run one grid synchronously, streaming results on the request itself
// (Ctrl-C on the curl cancels the workers):
//
//	curl -sN -X POST 'localhost:8080/v1/grids?stream=1' -d '{"seeds":[1,2,3]}'
//
// Deployment artifacts (see cmd/train -save-deployed) upload once and
// serve many grids — POST the bundle, then reference it as a policy
// named "artifact:<id>":
//
//	curl -s --data-binary @model.ehar localhost:8080/v1/artifacts
//	curl -s -X POST localhost:8080/v1/grids -d '{"policies":["artifact:a1"],"seeds":[1,2]}'
//	curl -s localhost:8080/v1/artifacts/a1 -o roundtrip.ehar   # byte-identical download
//	curl -s localhost:8080/v1/registry                          # all referenceable names
//
// Uploaded artifacts (and registered deployments) also serve online
// inference: POST an image (or a small batch) to /v1/infer and get the
// predicted class, the exit taken, and the per-exit confidence profile
// back. Requests are micro-batched per model — held up to -batch-window
// for company, dispatched at -max-batch — with bounded queues that shed
// load as 429 once -queue-cap requests are waiting. A request may name
// its inference backend ("plan", which "float32" and "legacy" also
// name, or the integer pipeline "int8fast", which "int8" also names);
// each (model, backend) pair is served as its own target with its own
// compiled plan, queue, breaker, and metrics:
//
//	curl -s -X POST localhost:8080/v1/infer \
//	    -d '{"artifact":"a1","input":[0.1, ...],"threshold":0.8}'
//	curl -s -X POST localhost:8080/v1/infer \
//	    -d '{"artifact":"a1","backend":"int8fast","input":[0.1, ...]}'
//	curl -s localhost:8080/metrics    # Prometheus text: queues, latencies, exits
//
// Fleet simulation (see internal/fleet) runs the same intermittent
// runtime across thousands-to-millions of simulated devices as one
// sharded job. POST a fleet spec and follow its epoch snapshots; fleet
// jobs checkpoint every snapshot under -data-dir and resume bit-
// identically after a kill, and GET /v1/jobs lists grid and fleet jobs
// together:
//
//	curl -s -X POST localhost:8080/v1/fleets \
//	    -d '{"name":"swarm","epochs":8,"populations":[{"name":"p","count":100000}]}'
//	curl -sN localhost:8080/v1/fleets/f1/results?format=ndjson  # follow snapshots
//	curl -s localhost:8080/v1/fleets/f1/results                 # final deterministic JSON
//	curl -s localhost:8080/v1/jobs                              # unified job listing
//
// Operations: GET /metrics is the Prometheus scrape endpoint, /healthz
// and /readyz the liveness/readiness probes (readiness flips 503 the
// moment shutdown starts, before the listener closes, and reports why
// in the body). -rate/-burst enable per-client token-bucket admission
// control on the /v1/ routes (keyed by X-Client-ID, else remote host);
// -pprof mounts /debug/pprof/. Every request gets an X-Request-ID and
// one structured log line on stderr.
//
// Durability: -data-dir makes artifacts and grid jobs survive restarts.
// Artifacts are written atomically (temp file + fsync + rename) under a
// journaled manifest; corrupted files are quarantined at boot, never
// served. Grid jobs checkpoint every completed point, so a daemon
// killed mid-job resumes it on the next boot and produces the same
// final result document an uninterrupted run would have — byte for
// byte.
//
// Resilience: -request-timeout bounds each non-streaming /v1/ request;
// -max-inflight and -shed-latency arm the overload gate (503 +
// Retry-After); -breaker-threshold/-breaker-cooldown trip a per-model
// circuit breaker after repeated inference execution failures.
// -chaos-spec arms the deterministic fault injector ("seed=N;
// kind:site:p=P[,d=DUR]", kinds latency/error/panic/shortwrite/drop,
// sites like http./v1/infer, batch.dispatch, store.write) for crash
// drills against a seeded, reproducible fault schedule.
//
// Usage:
//
//	ehserved [-addr :8080] [-workers N] [-seed N] [-data-dir DIR]
//	         [-max-batch N] [-batch-window D] [-queue-cap N]
//	         [-rate RPS] [-burst N] [-request-timeout D]
//	         [-max-inflight N] [-shed-latency D]
//	         [-breaker-threshold N] [-breaker-cooldown D]
//	         [-chaos-spec SPEC] [-pprof] [-log-level LEVEL]
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	ehinfer "repro"
	"repro/internal/batch"
	"repro/internal/chaos"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "session worker goroutines (0 = all cores)")
		seed        = flag.Uint64("seed", 42, "session base seed")
		maxBatch    = flag.Int("max-batch", 0, "largest /v1/infer micro-batch per model (0 = default 8)")
		batchWindow = flag.Duration("batch-window", 0, "how long an under-full micro-batch waits for company (0 = default 2ms, negative = dispatch immediately)")
		queueCap    = flag.Int("queue-cap", 0, "per-model pending-request bound before 429 (0 = default 256)")
		rate        = flag.Float64("rate", 0, "per-client request rate on /v1/ routes, tokens/second (0 = unlimited)")
		burst       = flag.Int("burst", 0, "per-client burst size when -rate is set (0 = ceil(rate))")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logLevel    = flag.String("log-level", "info", "request log level: debug, info, warn, error")

		dataDir      = flag.String("data-dir", "", "durable data directory: artifacts persist and grid jobs resume across restarts (empty = in-memory only)")
		chaosSpec    = flag.String("chaos-spec", "", `deterministic fault injection spec, e.g. "seed=7;error:http./v1/infer:p=0.01;latency:store:p=0.1,d=20ms"`)
		reqTimeout   = flag.Duration("request-timeout", 0, "deadline per non-streaming /v1/ request (0 = none)")
		maxInflight  = flag.Int("max-inflight", 0, "concurrent /v1/ requests before shedding 503 (0 = unlimited)")
		shedLatency  = flag.Duration("shed-latency", 0, "EWMA request-latency watermark that sheds 503 (0 = disabled)")
		brkThreshold = flag.Int("breaker-threshold", 5, "consecutive inference execution failures before a model's circuit opens (0 = disabled)")
		brkCooldown  = flag.Duration("breaker-cooldown", 10*time.Second, "how long an open circuit denies requests before probing")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(strings.ToLower(*logLevel))); err != nil {
		fatal(fmt.Errorf("bad -log-level %q: %w", *logLevel, err))
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	session := ehinfer.NewSession(
		ehinfer.WithWorkers(*workers),
		ehinfer.WithSeed(*seed),
	)
	b := *burst
	if b <= 0 && *rate > 0 {
		b = int(*rate + 0.999)
	}

	var inj *chaos.Injector
	if *chaosSpec != "" {
		spec, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fatal(err)
		}
		inj = chaos.New(spec)
		logger.Warn("chaos armed", "spec", spec.String())
	}

	opts := []serve.Option{
		serve.WithSession(session),
		serve.WithBatchConfig(batch.Config{
			MaxBatch: *maxBatch,
			Window:   *batchWindow,
			QueueCap: *queueCap,
		}),
		serve.WithRateLimit(*rate, b),
		serve.WithLogger(logger),
		serve.WithPprof(*pprofOn),
		serve.WithChaos(inj),
		serve.WithRequestTimeout(*reqTimeout),
		serve.WithLoadShed(*maxInflight, *shedLatency),
		serve.WithBreaker(*brkThreshold, *brkCooldown),
	}
	if *dataDir != "" {
		storeOpts := []store.Option{
			store.WithLogger(logger),
			// Strict decode at recovery: an artifact that no longer parses
			// is quarantined, not served.
			store.WithVerify(func(_ string, data []byte) error {
				_, err := ehinfer.DecodeDeployed(bytes.NewReader(data))
				return err
			}),
		}
		if inj != nil {
			// Chaos reaches the durability layer too: short writes, fsync
			// failures, and rename faults at the store.* sites.
			storeOpts = append(storeOpts, store.WithFS(chaos.FaultFS(store.OSFS{}, inj)))
		}
		st, err := store.Open(*dataDir, storeOpts...)
		if err != nil {
			fatal(fmt.Errorf("open data dir: %w", err))
		}
		rec := st.Recovery()
		logger.Info("store opened", "dir", *dataDir,
			"restored", rec.Restored, "quarantined", rec.Quarantined,
			"orphans", rec.Orphans, "tornManifest", rec.TornManifest)
		opts = append(opts, serve.WithStore(st))
	}
	sv := serve.New(opts...)
	httpSrv := &http.Server{
		Handler:           sv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bind before announcing, and announce the bound address: with port 0
	// the kernel picks the port, and a bind error fails before the line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Printf("ehserved: listening on %s (%d workers, seed %d)\n", ln.Addr(), session.Workers(), session.Seed())

	select {
	case <-ctx.Done():
		fmt.Println("\nehserved: shutting down")
	case err := <-errCh:
		fatal(err)
	}

	// Graceful shutdown: flip /readyz to draining so load balancers stop
	// routing here, then stop accepting requests, then cancel running
	// grids and wait for their workers to drain.
	sv.StartDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "ehserved: http shutdown:", err)
	}
	if err := sv.Shutdown(shutCtx); err != nil {
		fatal(fmt.Errorf("job drain: %w", err))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ehserved:", err)
	os.Exit(1)
}
