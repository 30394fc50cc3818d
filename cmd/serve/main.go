// Command serve boots the factorized inference server over a database
// directory: models saved by `train -save` (or the factorml facade) are
// loaded from the model registry on startup and served over an HTTP JSON
// API, scoring normalized fact tuples without materializing the join.
//
// With -fact the server also opens the streaming change feed over the
// star schema: POST /v1/ingest appends fact rows and inserts/updates
// dimension tuples, dimension updates reach served predictions
// immediately (exactly the cache entries above the touched tuple miss), and
// every registered model is kept under incremental maintenance —
// refreshed from the ingested deltas either on the -refresh-rows
// threshold, on the -fact POST /v1/refresh endpoint, or on demand,
// without restarting the server.
//
// With -wal-dir the server runs crash-safe: every ingest batch is
// written to a write-ahead log and fsynced (group commit, -fsync-every)
// before the HTTP ack, atomic snapshots truncate the log every
// -snapshot-every records, and after a kill -9 the next boot replays the
// WAL tail — acked rows, incremental statistics and refreshed models all
// come back bit-identical to the pre-crash state.
//
// Usage:
//
//	serve -db orders.db -dims synth_R1,synth_R2 -addr :8080
//	serve -db orders.db -dims synth_R1 -fact synth_S -refresh-rows 1000
//	serve -db orders.db -dims synth_R1 -fact synth_S -wal-dir orders.wal
//	serve -db orders.db -dims synth_R1 -max-inflight 8 -max-ingest-queue 32
//	serve -db orders.db -dims synth_R1,synth_R2 -batch-window 2ms -max-batch 256
//
// Endpoints:
//
//	GET  /healthz                       liveness (+ model count once booted)
//	GET  /readyz                        readiness (503 not_ready while booting)
//	GET  /statsz                        cache hit rate, latency, stream counters
//	GET  /metrics                       Prometheus text format
//	GET  /v1/models                     registered models (+ training lineage)
//	GET  /v1/models/{name}/health       drift/staleness verdict with per-column reasons
//	POST /v1/models/{name}/predict      {"rows":[{"fact":[…],"fks":[…]}]}, or the binary
//	                                    wire format via Content-Type: application/x-factorml-binary
//	POST /v1/ingest                     {"facts":[…],"dims":[…]} (with -fact)
//	POST /v1/refresh                    fold ingested deltas into models (with -fact)
//	GET  /debug/traces                  recent request traces
//	GET  /debug/traces/slow             slowest/errored request traces
//
// Every response carries an X-Request-Id header; sampled requests
// (-trace-sample) record a span tree — admission, engine micro-batch
// fan-out, per-dimension cache lookups, ingest/refresh phases — kept in
// a bounded in-memory flight recorder. Incoming W3C traceparent headers
// are honored. With -debug-addr a side listener additionally serves
// net/http/pprof under /debug/pprof/ plus the same trace endpoints, and
// -log-level writes one log/slog JSON line per request to stderr
// ({"time":…,"level":"INFO","msg":"http_request","endpoint":…,
// "method":…,"path":…,"status":…,"duration_ms":…,"trace_id":…}, level
// ERROR for a 5xx), whose trace_id is the response's X-Request-Id.
//
// The listener binds before the model registry loads: during boot the
// server answers /healthz (alive, not ready) and 503 not_ready
// elsewhere, then atomically swaps in the real handler. With
// -max-inflight / -max-ingest-queue, admission control rejects excess
// load with structured 429 responses (error codes predict_overloaded /
// ingest_overloaded) before any work is admitted. Every 429 and 503
// carries the same Retry-After: 1 header.
//
// With -batch-window, concurrent predict requests against the same model
// are coalesced into one engine batch — flushed when the window elapses
// or the batch reaches -max-batch rows — and the batcher's telemetry
// shows up in /metrics and /statsz. Because rows are scored independently
// in a fixed per-row order, coalescing never changes a single bit of any
// response.
//
// Predictions are bit-identical for every -workers value; -dims must list
// the DIRECT dimension tables in the join order used at training time —
// sub-dimension tables of a snowflake hierarchy are expanded from the
// references recorded in the database catalog, and prediction rows carry
// one foreign key per direct dimension only. With -fact the join is the
// one the catalog records for that table and -dims is checked against it
// (a permuted or wrong list exits 2 naming the expected one); without
// -fact there is no fact table to check against and -dims is trusted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"factorml"
)

func main() {
	var o serveFlags
	defineFlags(flag.CommandLine, &o)
	flag.Parse()
	if err := validateFlags(&o); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(o, os.Stdout, sig); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		if errors.Is(err, factorml.ErrDimsMismatch) {
			os.Exit(2) // a -dims list the catalog contradicts is a usage error
		}
		os.Exit(1)
	}
}

// defineFlags declares the command line on fs, parsing into o.
func defineFlags(fs *flag.FlagSet, o *serveFlags) {
	fs.StringVar(&o.dbDir, "db", "", "database directory (from datagen; holds tables and saved models)")
	fs.StringVar(&o.dims, "dims", "", "comma-separated dimension table names, join order (checked against the catalog's references when -fact is given)")
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address (port 0 picks a free port)")
	fs.IntVar(&o.workers, "workers", 0, "prediction worker pool size (0 = all CPUs, 1 = sequential); responses are bit-identical for every value")
	fs.IntVar(&o.cacheEntries, "cache", 0, "per-(model, direct dimension) LRU capacity in entries (0 = default 4096); an entry covers a direct dimension tuple with its subtree and costs its cached floats × 8 bytes, a 40-byte slot, an 8-byte map entry and 4 bytes per subtree tuple below it; memory follows occupancy")
	fs.StringVar(&o.fact, "fact", "", "fact table name; enables streaming ingestion at POST /v1/ingest")
	fs.IntVar(&o.refreshRows, "refresh-rows", 0, "auto-refresh attached models once this many ingested fact rows are pending (0 = manual; needs -fact)")
	fs.IntVar(&o.rebaseline, "rebaseline-every", 0, "rebuild GMM statistics from scratch every Nth refresh (0 = only after dimension updates; needs -fact)")
	fs.DurationVar(&o.batchWindow, "batch-window", 0, "coalesce concurrent predict requests per model for this long before scoring them as one engine batch (0 = batching off); per-row results stay bit-identical")
	fs.IntVar(&o.maxBatch, "max-batch", 0, "flush a coalesced batch early once it holds this many rows; single requests at or over the cap bypass the window (0 = window-only flush; needs -batch-window)")
	fs.IntVar(&o.maxInflight, "max-inflight", 0, "per-model in-flight prediction limit; excess answers 429 predict_overloaded (0 = unlimited)")
	fs.IntVar(&o.maxIngestQueue, "max-ingest-queue", 0, "bounded ingest queue: admitted-but-unfinished batches; excess answers 429 ingest_overloaded (0 = unlimited)")
	fs.Float64Var(&o.traceSample, "trace-sample", 1.0, "fraction of requests that record spans (0 < f <= 1; incoming sampled traceparent headers always record)")
	fs.IntVar(&o.traceSlowMS, "trace-slow-ms", 0, "requests at or over this duration are kept in the slow-trace list regardless of recency (0 = default 100)")
	fs.StringVar(&o.logLevel, "log-level", "", "request logging to stderr as JSON lines at this level: debug, info, warn, error (empty = no request log)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "side listener for operational debugging: net/http/pprof under /debug/pprof/ plus the trace flight recorder at /debug/traces[/slow] (empty = disabled; port 0 picks a free port)")
	fs.Float64Var(&o.driftWarn, "drift-warn", 0.1, "per-column PSI at or above this marks the column \"warn\" in the health verdict")
	fs.Float64Var(&o.driftPSI, "drift-psi", 0.25, "per-column PSI at or above this marks the column \"drift\" and the model verdict \"drifting\"")
	fs.Int64Var(&o.stalenessMaxRows, "staleness-max-rows", 0, "verdict flips to \"stale\" once this many fact rows were ingested since the model's last refresh (0 = staleness by rows disabled)")
	fs.Float64Var(&o.healthSample, "health-sample", 1.0, "fraction of predict requests whose outputs feed the prediction-quality sketch (0 < f <= 1)")
	fs.StringVar(&o.walDir, "wal-dir", "", "write-ahead-log directory; enables crash-safe durability (ingest acks after fsync within the -fsync-every window, WAL replay on reboot); empty = durability off")
	fs.IntVar(&o.fsyncEvery, "fsync-every", 0, "group-commit window: fsync every this many WAL records (0/1 = every record, no ack before its fsync; N>1 acks before the fsync, a bounded N-record loss window on a crash; needs -wal-dir)")
	fs.IntVar(&o.snapshotEvery, "snapshot-every", defaultSnapshotEvery, "commit an atomic snapshot and truncate the WAL after this many records past the last snapshot (0 = boot/shutdown checkpoints only; needs -wal-dir)")
}

// The default of -snapshot-every, a flag only meaningful with -wal-dir:
// validateFlags tells "left alone" from "set without its prerequisite" by
// comparing against it.
const defaultSnapshotEvery = 10000

type serveFlags struct {
	dbDir, dims, addr, fact     string
	workers, cacheEntries       int
	refreshRows, rebaseline     int
	maxInflight, maxIngestQueue int
	batchWindow                 time.Duration
	maxBatch                    int
	traceSample                 float64
	traceSlowMS                 int
	debugAddr                   string
	logLevel                    string
	driftWarn, driftPSI         float64
	stalenessMaxRows            int64
	healthSample                float64
	walDir                      string
	fsyncEvery, snapshotEvery   int
}

// validateFlags rejects a command line before anything is bound or opened:
// missing required flags, out-of-range numbers, and flags set without the
// one that gives them meaning. main prints the error after "serve:" and
// exits 2; scripts/load_smoke.sh greps for these messages.
func validateFlags(o *serveFlags) error {
	switch {
	case o.dbDir == "" || o.dims == "":
		return errors.New("-db and -dims are required")
	case o.workers < 0:
		return fmt.Errorf("-workers must be >= 0, got %d", o.workers)
	case o.cacheEntries < 0:
		return errors.New("-cache must be >= 0")
	case o.refreshRows < 0 || o.rebaseline < 0:
		return errors.New("-refresh-rows and -rebaseline-every must be >= 0")
	case o.fact == "" && (o.refreshRows > 0 || o.rebaseline > 0):
		return errors.New("-refresh-rows/-rebaseline-every need -fact (streaming ingestion)")
	case o.maxInflight < 0 || o.maxIngestQueue < 0:
		return errors.New("-max-inflight and -max-ingest-queue must be >= 0")
	case o.batchWindow < 0 || o.maxBatch < 0:
		return errors.New("-batch-window and -max-batch must be >= 0")
	case o.batchWindow == 0 && o.maxBatch > 0:
		return errors.New("-max-batch needs -batch-window (dynamic batching)")
	case o.traceSample <= 0 || o.traceSample > 1:
		return fmt.Errorf("-trace-sample must be in (0, 1], got %g", o.traceSample)
	case o.traceSlowMS < 0:
		return fmt.Errorf("-trace-slow-ms must be >= 0, got %d", o.traceSlowMS)
	case o.driftWarn <= 0 || o.driftPSI <= 0 || o.driftWarn > o.driftPSI:
		return fmt.Errorf("-drift-warn and -drift-psi must be > 0 with -drift-warn <= -drift-psi, got %g / %g", o.driftWarn, o.driftPSI)
	case o.stalenessMaxRows < 0:
		return fmt.Errorf("-staleness-max-rows must be >= 0, got %d", o.stalenessMaxRows)
	case o.healthSample <= 0 || o.healthSample > 1:
		return fmt.Errorf("-health-sample must be in (0, 1], got %g", o.healthSample)
	case o.fsyncEvery < 0 || o.snapshotEvery < 0:
		return errors.New("-fsync-every and -snapshot-every must be >= 0")
	case o.walDir == "" && (o.fsyncEvery > 0 || o.snapshotEvery != defaultSnapshotEvery):
		return errors.New("-fsync-every/-snapshot-every need -wal-dir (durability)")
	}
	if o.logLevel != "" {
		if _, err := factorml.ParseLogLevel(o.logLevel); err != nil {
			return err
		}
	}
	return nil
}

// run serves until the listener fails or stop delivers a signal. Progress
// lines — the bound address first, so a caller may bind port 0 and parse
// the chosen port — go to out.
func run(cfg serveFlags, out io.Writer, stop <-chan os.Signal) error {
	// Bind the listener before loading the registry so the process
	// answers health checks from the first instant: the swappable handler
	// serves "booting" (alive, not ready) until the real server is up.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// atomic.Value needs one consistent concrete type, so the handler is
	// boxed (the booting stand-in and the real server differ).
	type handlerBox struct{ h http.Handler }
	var handler atomic.Value
	handler.Store(handlerBox{factorml.BootingHandler()})
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(handlerBox).h.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	defer srv.Close() // a boot that fails below must not leave the listener bound
	// The resolved address is printed (not just logged) so scripts can use
	// port 0 and parse the chosen port.
	fmt.Fprintf(out, "factorml-serve listening on %s (booting)\n", ln.Addr())

	var openOpts []factorml.OpenOption
	if cfg.walDir != "" {
		openOpts = append(openOpts, factorml.WithDurability(factorml.DurabilityConfig{
			Dir:           cfg.walDir,
			FsyncEvery:    cfg.fsyncEvery,
			SnapshotEvery: cfg.snapshotEvery,
		}))
	}
	db, err := factorml.Open(cfg.dbDir, factorml.Options{}, openOpts...)
	if err != nil {
		return err
	}
	defer db.Close()

	var dimTables []string
	for _, name := range strings.Split(cfg.dims, ",") {
		dimTables = append(dimTables, strings.TrimSpace(name))
	}
	opts := []factorml.ServerOption{
		factorml.WithEngineConfig(factorml.ServeConfig{
			NumWorkers: cfg.workers, CacheEntries: cfg.cacheEntries,
		}),
		factorml.WithLimits(factorml.Limits{
			MaxInFlightPerModel: cfg.maxInflight,
			MaxQueuedIngest:     cfg.maxIngestQueue,
			BatchWindow:         cfg.batchWindow,
			MaxBatchRows:        cfg.maxBatch,
		}),
		factorml.WithMetrics(),
		factorml.WithTracing(factorml.TraceConfig{
			SampleFraction: cfg.traceSample,
			SlowThreshold:  time.Duration(cfg.traceSlowMS) * time.Millisecond,
		}),
		factorml.WithMonitoring(factorml.MonitorConfig{
			DriftWarnPSI:     cfg.driftWarn,
			DriftPSI:         cfg.driftPSI,
			StalenessMaxRows: cfg.stalenessMaxRows,
			SampleFraction:   cfg.healthSample,
		}),
	}
	if cfg.logLevel != "" {
		level, err := factorml.ParseLogLevel(cfg.logLevel)
		if err != nil {
			return err
		}
		opts = append(opts, factorml.WithServerLogger(factorml.NewLogger(os.Stderr, level)))
	}
	if cfg.fact != "" {
		opts = append(opts, factorml.WithStream(cfg.fact, factorml.StreamPolicy{
			RefreshRows:     cfg.refreshRows,
			RebaselineEvery: cfg.rebaseline,
			NumWorkers:      cfg.workers,
		}))
	}
	server, err := factorml.NewServer(db, dimTables, opts...)
	if err != nil {
		return err
	}
	models, err := db.Models()
	if err != nil {
		return err
	}
	for _, m := range models {
		fmt.Fprintf(out, "loaded model %q (%s, version %d, dim %d)\n", m.Name, m.Kind, m.Version, m.Dim)
	}
	if st := server.Stream(); st != nil {
		fmt.Fprintf(out, "models under incremental maintenance: %s\n", strings.Join(st.Attached(), ", "))
		fmt.Fprintf(out, "streaming ingestion enabled over fact table %q (refresh-rows=%d)\n", cfg.fact, cfg.refreshRows)
	}
	if cfg.maxInflight > 0 || cfg.maxIngestQueue > 0 {
		fmt.Fprintf(out, "admission control: max-inflight=%d max-ingest-queue=%d\n", cfg.maxInflight, cfg.maxIngestQueue)
	}
	if cfg.batchWindow > 0 {
		fmt.Fprintf(out, "dynamic batching: batch-window=%s max-batch=%d\n", cfg.batchWindow, cfg.maxBatch)
	}
	fmt.Fprintf(out, "health monitoring: drift-warn=%g drift-psi=%g staleness-max-rows=%d health-sample=%g\n",
		cfg.driftWarn, cfg.driftPSI, cfg.stalenessMaxRows, cfg.healthSample)
	if cfg.walDir != "" {
		ws := db.WALStats()
		fmt.Fprintf(out, "durability: wal-dir=%s fsync-every=%d snapshot-every=%d (recovered to LSN %d)\n",
			cfg.walDir, cfg.fsyncEvery, cfg.snapshotEvery, ws.LastLSN)
	}
	// The debug side listener carries the profiling and trace-export
	// surface away from the serving port: pprof endpoints plus the same
	// flight-recorder handler the main mux mounts. Its address is printed
	// like the serving address so scripts can bind port 0 and parse it.
	if cfg.debugAddr != "" {
		dln, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			return err
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		if th := server.TraceHandler(); th != nil {
			dmux.Handle("/debug/traces", th)
			dmux.Handle("/debug/traces/slow", th)
		}
		dsrv := &http.Server{Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = dsrv.Serve(dln) }()
		defer dsrv.Close()
		fmt.Fprintf(out, "factorml-serve debug listening on %s\n", dln.Addr())
	}

	handler.Store(handlerBox{server})
	fmt.Fprintf(out, "factorml-serve ready on %s (%d models, dims %s)\n", ln.Addr(), len(models), cfg.dims)

	select {
	case err := <-errc:
		return err
	case s := <-stop:
		fmt.Fprintf(out, "received %v, shutting down\n", s)
		server.SetReady(false) // drain: fail readiness before closing
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}
